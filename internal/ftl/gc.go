package ftl

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// runGC reclaims stale capacity. Fully-dead blocks (no live pages) are
// erased first — they need no relocation destination, so they are
// always reclaimable even with an empty free pool. Then one live victim
// is reclaimed, preferring the requesting stream's blocks but falling
// back to any stream, because free blocks are a shared resource.
func (f *FTL) runGC(prefer StreamID) {
	startMoves, startRuns := f.gcMoves, f.gcRuns
	defer func() {
		if f.gcRuns != startRuns {
			moves := f.gcMoves - startMoves
			f.obs.Record(obs.Event{Kind: obs.EvGC, Stream: int(prefer), Aux: moves})
			f.obs.ObserveGC(int(moves))
		}
	}()
	// Dead-block sweep: guaranteed progress under pool exhaustion.
	// Blocks with pending batch placements are off limits (their valid
	// counts are optimistic and their pages not all programmed yet).
	swept := false
	for b := range f.blocks {
		st := &f.blocks[b]
		if f.hasPending(b) {
			continue
		}
		if st.allocated && !st.retired && st.valid == 0 && st.fullPages > 0 && !f.isActive(b) {
			if err := f.eraseAndFree(b); err == nil {
				f.gcRuns++
				swept = true
			}
		}
	}
	if swept && len(f.freePool) > f.gcLow {
		return
	}
	victim := f.pickVictim(prefer)
	if victim < 0 {
		victim = f.pickVictim(-1)
	}
	// Dead-data-aware deferral: a victim whose live pages are mostly
	// predicted to die soon is parked instead of reclaimed — relocating
	// about-to-be-TRIMmed data never pays for itself. The pass re-picks
	// among the remaining candidates; parked blocks come back into
	// consideration next pass (and are force-collected after a bounded
	// number of parks, so a wrong prediction cannot wedge reclamation).
	for victim >= 0 && f.deferVictim(victim) {
		next := f.pickVictim(prefer)
		if next < 0 {
			next = f.pickVictim(-1)
		}
		victim = next
	}
	for _, b := range f.gcSkipped {
		f.gcSkip[b] = false
	}
	f.gcSkipped = f.gcSkipped[:0]
	if victim < 0 {
		// No garbage to collect; static wear leveling may still have
		// work (moving cold data off pristine blocks).
		f.maybeStaticWL(prefer)
		return
	}
	if err := f.reclaim(victim); err != nil {
		// A reclaim failure (e.g. destination exhaustion) leaves the
		// victim as-is; the caller will surface ErrNoSpace.
		return
	}
	f.gcRuns++
	f.maybeStaticWL(prefer)
}

// maxVictimParks bounds how many consecutive GC passes may defer the
// same victim on a predicted-death bet before it is collected anyway.
const maxVictimParks = 4

// deferVictim decides whether dead-data-aware GC parks this victim for
// a later pass. The decision is a pure function of OOB-persisted state
// (per-page lifetime hints mirrored in the mapping) plus pool pressure,
// so a crash-rebuilt FTL facing the same state defers identically —
// the recovery contract of DESIGN.md §13. With no hinted writes ever
// issued the fast path keeps GC byte-identical to pre-hint builds.
func (f *FTL) deferVictim(b int) bool {
	if f.hintedWrites == 0 {
		return false
	}
	st := &f.blocks[b]
	if st.progFailed || st.parks >= maxVictimParks {
		return false
	}
	if len(f.freePool) <= f.reserve+1 {
		return false // emergency reclamation cannot wait for deaths
	}
	// Count live pages predicted to die within days.
	hot := 0
	base := b * f.ppb
	for page := 0; page < st.fullPages; page++ {
		lpa := f.p2l[base+page]
		if lpa < 0 {
			continue
		}
		if f.l2p[lpa].hint == storage.HintHot {
			hot++
		}
	}
	if hot == 0 || hot*2 < st.valid {
		return false // relocating the minority of soon-dead pages is fine
	}
	st.parks++
	f.deadSkipDefers++
	f.deadSkipPages += int64(hot)
	f.gcSkip[b] = true
	f.gcSkipped = append(f.gcSkipped, b)
	return true
}

// staticWLGapFrac is the wear spread (as a fraction of rated endurance)
// within a wear-leveled stream that triggers static wear leveling:
// relocating cold data off the least-worn block so it rejoins rotation.
const staticWLGapFrac = 0.25

// staticWLCheckEvery rate-limits static WL evaluation to one check per
// this many block allocations.
const staticWLCheckEvery = 16

// maybeStaticWL performs one static wear-leveling move for the stream if
// its wear spread is excessive. Non-wear-leveled streams never run it —
// that is the paper's deliberate SPARE policy (§4.3, [73]).
func (f *FTL) maybeStaticWL(id StreamID) {
	if id < 0 || int(id) >= len(f.streams) || !f.streams[id].WearLeveling {
		return
	}
	if len(f.freePool) <= f.reserve {
		return // no headroom for voluntary moves
	}
	coldest, hottest := -1, -1
	var coldPEC, hotPEC int
	rated := 0
	for b := range f.blocks {
		st := &f.blocks[b]
		if !st.allocated || st.retired || st.owner != id || f.isActive(b) || f.hasPending(b) {
			continue
		}
		info, err := f.chip.Info(b)
		if err != nil {
			continue
		}
		rated = info.RatedPEC
		if coldest < 0 || info.PEC < coldPEC {
			// Only fully-live cold blocks matter: blocks with stale
			// pages are reachable through normal GC already.
			if st.valid > 0 && st.stale == 0 {
				coldest = b
				coldPEC = info.PEC
			}
		}
		if hottest < 0 || info.PEC > hotPEC {
			hottest = b
			hotPEC = info.PEC
		}
	}
	if coldest < 0 || hottest < 0 || rated == 0 {
		return
	}
	if float64(hotPEC-coldPEC) < staticWLGapFrac*float64(rated) {
		return
	}
	if err := f.reclaim(coldest); err == nil {
		f.gcRuns++
		f.staticWLMoves++
	}
}

// pickVictim chooses the block with the most reclaimable space among
// blocks owned by stream id (or any stream if id < 0). Active blocks are
// exempt. For wear-leveled streams the score is cost-benefit
// (stale / (valid+1), scaled down for high-wear blocks); for
// non-wear-leveled streams it is pure greedy stale count — wear is
// deliberately ignored (§4.3).
func (f *FTL) pickVictim(id StreamID) int {
	best := -1
	bestScore := 0.0
	for b := range f.blocks {
		st := &f.blocks[b]
		if !st.allocated || st.retired {
			continue
		}
		if id >= 0 && st.owner != id {
			continue
		}
		if f.isActive(b) || f.hasPending(b) {
			continue
		}
		if f.gcSkip[b] {
			continue // parked this pass by dead-data-aware deferral
		}
		if st.progFailed {
			// Drain failed blocks first: their data must move off the
			// dying silicon regardless of garbage content.
			return b
		}
		if st.stale == 0 {
			continue
		}
		pol := &f.streams[st.owner]
		costBenefit := pol.GC == GCCostBenefit ||
			(pol.GC == GCAuto && pol.WearLeveling)
		score := float64(st.stale)
		if costBenefit {
			info, err := f.chip.Info(b)
			if err != nil {
				continue
			}
			// Cost-benefit: prefer high-garbage, low-wear victims.
			score = float64(st.stale) / float64(st.valid+1) / (1 + info.WearFrac)
		}
		if score > bestScore {
			bestScore = score
			best = b
		}
	}
	return best
}

// isActive reports whether b is some stream's active block.
func (f *FTL) isActive(b int) bool {
	for _, a := range f.active {
		if a == b {
			return true
		}
	}
	return false
}

// reclaim moves the victim's live pages to their streams' active
// blocks and erases the victim back into the free pool. The live pages
// — all on the victim's own plane — are read as one run under a single
// plane-lock acquisition, then relocate in page order.
func (f *FTL) reclaim(victim int) error {
	st := &f.blocks[victim]
	base := victim * f.ppb
	r := &f.reloc
	r.Reset()
	for page := 0; page < st.fullPages; page++ {
		if lpa := f.p2l[base+page]; lpa >= 0 {
			m := f.l2p[lpa]
			r.Add(lpa, PPA{Block: victim, Page: page}, f.streams[m.stream].Scheme, m.dataLen)
		}
	}
	if r.Len() == 0 {
		return f.eraseAndFree(victim)
	}
	f.relocRetries += r.Read(f.chip)
	var err error
	for k := 0; k < r.Len() && err == nil; k++ {
		lpa, op := r.Page(k)
		err = f.relocateFrom(lpa, f.l2p[lpa].stream, op)
	}
	r.Release(f.chip)
	if err != nil {
		return err
	}
	return f.eraseAndFree(victim)
}

// relocate rewrites lpa into stream dst (same stream = GC/refresh move,
// different stream = classification-driven promotion/demotion, §4.4)
// as a one-page relocation.
func (f *FTL) relocate(lpa int64, dst StreamID) error {
	m, ok := f.lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	r := &f.reloc
	r.Reset()
	r.Add(lpa, m.ppa, f.streams[m.stream].Scheme, m.dataLen)
	f.relocRetries += r.Read(f.chip)
	_, op := r.Page(0)
	err := f.relocateFrom(lpa, dst, op)
	r.Release(f.chip)
	return err
}

// relocateFrom finishes a relocation whose source page op has been
// read: the shared relocation step (storage.Relocation.Move), then
// program and remap.
func (f *FTL) relocateFrom(lpa int64, dst StreamID, op *flash.ReadOp) error {
	m, ok := f.lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	mv, err := f.reloc.Move(op, &f.streams[m.stream], f.streams[dst].Scheme, m.dataLen, m.baseFlips)
	if err != nil {
		return fmt.Errorf("ftl: relocate %v: %w", m.ppa, err)
	}
	if mv.Salvaged {
		f.salvagedPages++
		f.salvagedBytes += int64(m.dataLen)
		f.obs.Record(obs.Event{Kind: obs.EvSalvage, LBA: lpa, Block: m.ppa.Block, Page: m.ppa.Page, Stream: int(m.stream), Aux: int64(m.dataLen)})
	}
	if mv.Degraded {
		f.degradedReads++
	}
	// The digest travels with the page verbatim — never recomputed from
	// the (possibly decayed) medium — so it keeps describing the bytes
	// the host wrote. A relocation that crystallizes corruption therefore
	// leaves a digest mismatch behind for the auditor to find.
	// The lifetime hint travels with the page the same way: relocated
	// data keeps its predicted deathtime and lands in the destination
	// stream's matching bin, so same-deathtime data stays co-located
	// even across GC and demotion moves.
	tag := flash.PageTag{LPA: lpa, Stream: uint8(dst), DataLen: int32(m.dataLen), Digest: m.digest, HasDigest: m.hasDigest, Hint: uint8(m.hint)}
	b, page, err := f.program(mv.Stored, mv.StoredLen, tag, maxProgramAttempts, false)
	if err != nil {
		return err
	}
	f.gcMoves++

	f.invalidate(m.ppa)
	f.setMapping(lpa, mapping{ppa: PPA{Block: b, Page: page}, stream: dst, dataLen: m.dataLen, baseFlips: mv.BaseFlips, digest: m.digest, hasDigest: m.hasDigest, hint: m.hint})
	return nil
}

// relocTarget returns a writable block for relocation in the
// destination's (stream, bin) slot without triggering recursive GC; it
// may dip into the reserve.
func (f *FTL) relocTarget(id StreamID, h storage.LifetimeHint) (int, error) {
	s := aidx(id, h)
	b := f.active[s]
	if b >= 0 {
		pages, err := f.chip.PagesIn(b)
		if err != nil {
			return -1, err
		}
		if f.blocks[b].fullPages < pages {
			return b, nil
		}
		f.active[s] = -1
	}
	if len(f.freePool) == 0 {
		return -1, ErrNoSpace
	}
	nb, err := f.allocBlock(id, h)
	if err != nil {
		return -1, err
	}
	f.active[s] = nb
	return nb, nil
}

// eraseAndFree erases a fully-invalidated block, then applies the wear
// policy: healthy blocks return to the free pool; worn blocks are
// resuscitated down the stream's density ladder or retired.
func (f *FTL) eraseAndFree(b int) error {
	st := &f.blocks[b]
	if st.valid != 0 {
		return fmt.Errorf("ftl: erasing block %d with %d live pages", b, st.valid)
	}
	owner := st.owner
	if err := f.chip.Erase(b); err != nil {
		if !errors.Is(err, flash.ErrEraseFail) {
			// Not a wear signal (e.g. power loss from the fault
			// interposer): surface it rather than retiring a healthy
			// block on a transient condition.
			return fmt.Errorf("ftl: erase block %d: %w", b, err)
		}
		// Erase-status failure is a hard wear signal: retire immediately.
		return f.retireBlock(b)
	}
	st.allocated = false
	st.stale = 0
	st.fullPages = 0
	st.parks = 0
	if s := aidx(owner, st.hint); f.active[s] == b {
		f.active[s] = -1
	}
	f.obs.Record(obs.Event{Kind: obs.EvErase, Block: b, Stream: int(owner)})

	info, err := f.chip.Info(b)
	if err != nil {
		return err
	}
	if st.progFailed {
		// A program-status failure is a hard wear signal: retire
		// without trying the resuscitation ladder.
		return f.retireBlock(b)
	}
	pol0 := &f.streams[owner]
	retireAt := pol0.WearRetireFrac
	if retireAt == 0 {
		retireAt = 1.0
	}
	if info.WearFrac >= retireAt {
		pol := &f.streams[owner]
		if st.resuscIdx < len(pol.Resuscitate) {
			bits := pol.Resuscitate[st.resuscIdx]
			m, err := flash.PseudoMode(f.chip.Tech(), bits)
			if err != nil {
				return err
			}
			if err := f.chip.SetMode(b, m); err != nil {
				return fmt.Errorf("ftl: resuscitate block %d: %w", b, err)
			}
			st.resuscIdx++
			f.resuscCnt++
			f.freePool = append(f.freePool, b)
			f.notifyCapacity()
			f.obs.Record(obs.Event{Kind: obs.EvResuscitate, Block: b, Stream: int(owner), Aux: int64(bits)})
			return nil
		}
		return f.retireBlock(b)
	}
	f.freePool = append(f.freePool, b)
	return nil
}

// retireBlock permanently removes b from service. On a real chip Retire
// only fails on a bad address; through a fault interposer it can also
// fail under power loss, in which case the FTL-side marking is undone so
// a rebuild over the surviving chip sees consistent state.
func (f *FTL) retireBlock(b int) error {
	st := &f.blocks[b]
	if err := f.chip.Retire(b); err != nil {
		return fmt.Errorf("ftl: retire block %d: %w", b, err)
	}
	st.retired = true
	st.allocated = false
	for i, a := range f.active {
		if a == b {
			f.active[i] = -1
		}
	}
	f.retiredCnt++
	f.notifyCapacity()
	f.obs.Record(obs.Event{Kind: obs.EvRetire, Block: b})
	return nil
}

// Quarantine seals a block after repeated hard faults observed above the
// FTL (the device layer's retirement escalation): the block takes no
// further programs, GC drains its live pages with priority, and it
// retires at erase time — the same discipline as a program-status
// failure. Quarantining a free-pool or unallocated block retires it
// immediately.
func (f *FTL) Quarantine(b int) error {
	defer f.flushCapacity()
	if b < 0 || b >= len(f.blocks) {
		return fmt.Errorf("ftl: quarantine block %d: %w", b, flash.ErrBadAddress)
	}
	st := &f.blocks[b]
	if st.retired {
		return nil
	}
	if !st.allocated {
		// Nothing to drain: drop it from the free pool and retire.
		for i, fb := range f.freePool {
			if fb == b {
				f.freePool = append(f.freePool[:i], f.freePool[i+1:]...)
				break
			}
		}
		return f.retireBlock(b)
	}
	f.sealBlock(b)
	f.obs.Record(obs.Event{Kind: obs.EvQuarantine, Block: b, Stream: int(st.owner)})
	return nil
}

func (f *FTL) notifyCapacity() {
	f.capDirty = true
}

// flushCapacity delivers a pending capacity-change notification. Called
// (deferred) at the end of public mutating operations so the callback
// never observes the FTL mid-operation.
func (f *FTL) flushCapacity() {
	if !f.capDirty {
		return
	}
	f.capDirty = false
	if f.OnCapacityChange != nil {
		f.OnCapacityChange(f.UsablePages())
	}
}

// UsablePages returns the number of physical pages on non-retired blocks
// in their current operating modes, minus the over-provisioning reserve.
// The device layer derives its advertised (possibly shrinking) capacity
// from this — the paper's capacity variance (§4.3).
func (f *FTL) UsablePages() int {
	total := 0
	for b := range f.blocks {
		if f.blocks[b].retired {
			continue
		}
		pages, err := f.chip.PagesIn(b)
		if err != nil {
			continue
		}
		total += pages
	}
	total -= f.reserve * f.chip.Geometry().PagesPerBlock
	if total < 0 {
		total = 0
	}
	return total
}

// Scrub is the degradation monitor (§4.3): it walks live pages, and any
// page whose modelled RBER exceeds its stream's retire threshold is
// relocated (refreshing its charge and crystallizing uncorrectable
// damage). Blocks left empty by relocation are erased, which applies
// retirement/resuscitation policy. maxMoves bounds the work per pass
// (0 = unlimited).
func (f *FTL) Scrub(maxMoves int) (ScrubReport, error) {
	defer f.flushCapacity()
	var rep ScrubReport
	// Walk the dense table in LPA order. No snapshot is needed:
	// relocation rewrites existing entries in place and never maps new
	// LPAs, so ascending iteration visits exactly the pages that were
	// live when the pass started (matching the old sorted-snapshot
	// order). The touched-block set is reusable scratch, not a per-call
	// map.
	if len(f.scrubDirty) < len(f.blocks) {
		f.scrubDirty = make([]bool, len(f.blocks))
	} else {
		// Clear on entry rather than exit: an error return mid-pass must
		// not leak dirty bits into the next pass.
		for i := range f.scrubDirty {
			f.scrubDirty[i] = false
		}
	}
	dirty := f.scrubDirty
	for lpa := int64(0); lpa < int64(len(f.l2p)); lpa++ {
		m, ok := f.lookup(lpa)
		if !ok {
			continue
		}
		rep.PagesChecked++
		rber, err := f.chip.PageRBER(m.ppa.Block, m.ppa.Page)
		if err != nil {
			continue
		}
		pol := &f.streams[m.stream]
		threshold := pol.RetireRBER
		if threshold == 0 {
			threshold = DefaultRetireRBER
		}
		if rber < threshold {
			continue
		}
		if maxMoves > 0 && rep.PagesRelocated >= maxMoves {
			break
		}
		if err := f.relocate(lpa, m.stream); err != nil {
			return rep, err
		}
		dirty[m.ppa.Block] = true
		rep.PagesRelocated++
	}
	// Erase blocks fully drained by the scrub (block order,
	// deterministic — the old map iteration was only incidentally
	// unordered).
	for b := range dirty {
		if !dirty[b] {
			continue
		}
		st := &f.blocks[b]
		if st.allocated && st.valid == 0 && !f.isActive(b) {
			if err := f.eraseAndFree(b); err != nil {
				return rep, err
			}
			rep.BlocksFreed++
		}
	}
	f.obs.Record(obs.Event{Kind: obs.EvScrub, Aux: int64(rep.PagesRelocated)})
	f.obs.ObserveScrub(rep.PagesRelocated)
	return rep, nil
}

// Relocate moves a logical page to a different stream; this is the
// mechanism behind classifier-driven demotion (SYS -> SPARE) and
// cloud-repair promotion. When the free pool is exhausted it runs GC
// and retries once before giving up.
func (f *FTL) Relocate(lpa int64, dst StreamID) error {
	defer f.flushCapacity()
	if _, err := f.policy(dst); err != nil {
		return err
	}
	err := f.relocate(lpa, dst)
	if errors.Is(err, ErrNoSpace) {
		f.runGC(dst)
		err = f.relocate(lpa, dst)
	}
	return err
}

// Stats returns a telemetry snapshot.
func (f *FTL) Stats() Stats {
	return Stats{
		HostWrites:    f.hostWrites,
		FlashPrograms: f.flashPrograms,
		GCRuns:        f.gcRuns,
		GCMoves:       f.gcMoves,
		Retired:       f.retiredCnt,
		Resuscitated:  f.resuscCnt,
		DegradedReads: f.degradedReads,
		ProgFailures:  f.progFailures,
		StaticWLMoves: f.staticWLMoves,
		RelocRetries:  f.relocRetries,
		SalvagedPages: f.salvagedPages,
		SalvagedBytes: f.salvagedBytes,
		FreeBlocks:    len(f.freePool),
		MappedPages:   f.mapped,
	}
}

// WriteAmplification returns flash programs per host write (>= 1 once
// writes occurred).
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 0
	}
	return float64(f.flashPrograms) / float64(f.hostWrites)
}

// HintedWrites returns the number of writes that carried a non-None
// lifetime hint. Backend-local (storage.Stats is golden-coupled and
// must not grow fields).
func (f *FTL) HintedWrites() int64 { return f.hintedWrites }

// DeadSkipStats returns dead-data-aware GC telemetry: victims parked
// awaiting predicted deaths, and the live predicted-dead pages whose
// relocation those parks deferred.
func (f *FTL) DeadSkipStats() (defers, pages int64) {
	return f.deadSkipDefers, f.deadSkipPages
}
