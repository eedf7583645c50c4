package ftl

import (
	"errors"
	"fmt"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// gcReadScratch is reclaim's reusable state: the victim's live
// pages, their chip-pool destination buffers, and the read run that
// fills them. Kept separate from the read engines because GC can run
// (via escalation-driven relocation) while a previous ReadBatch's
// returned payloads are still live in their retained buffers.
type gcReadScratch struct {
	lpas  []int64
	sizes []int
	bufs  [][]byte
	ops   []flash.ReadOp
}

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

// reclaim moves the victim's live pages to their stream's active block
// and erases the victim back into the free pool. The victim's live
// pages — all on one plane, the victim's own — are read as a single run
// under one plane-lock acquisition (storage.ReadRuns), then the
// relocations replay in page order, each consuming its pre-read result. Scratch is separate from the read
// engines' (gcr), because GC can run while a ReadBatch's returned
// payloads are still live in their retained buffers.
func (f *FTL) reclaim(victim int) error {
	st := &f.blocks[victim]
	base := victim * f.ppb
	g := &f.gcr
	g.lpas = g.lpas[:0]
	g.ops = g.ops[:0]
	g.sizes = g.sizes[:0]
	for page := 0; page < st.fullPages; page++ {
		lpa := f.p2l[base+page]
		if lpa < 0 {
			continue
		}
		m := f.l2p[lpa]
		g.lpas = append(g.lpas, lpa)
		g.sizes = append(g.sizes, ecc.StoredLen(f.streams[m.stream].Scheme, m.dataLen))
		g.ops = append(g.ops, flash.ReadOp{Block: victim, Page: page})
	}
	if len(g.lpas) == 0 {
		return f.eraseAndFree(victim)
	}
	n := len(g.lpas)
	if cap(g.bufs) < n {
		g.bufs = make([][]byte, n)
	}
	// Mirror readForRelocate's bounded retry of transient read faults.
	f.relocRetries += storage.ReadRuns(f.chip, g.ops, g.sizes, g.bufs[:n], relocReadAttempts)
	var firstErr error
	for k := 0; k < n; k++ {
		lpa := g.lpas[k]
		if err := f.relocateFrom(lpa, f.l2p[lpa].stream, g.ops[k].Res, g.ops[k].Err); err != nil {
			firstErr = err
			break
		}
	}
	storage.ReleaseRuns(f.chip, g.ops, g.bufs)
	if firstErr != nil {
		return firstErr
	}
	return f.eraseAndFree(victim)
}

// relocReadAttempts bounds the read retries relocation performs before
// declaring a page unreadable. Transient interface faults (the fault
// interposer's read bursts) usually clear within a retry or two; a page
// that stays unreadable is salvaged or surfaced.
const relocReadAttempts = 3

// readForRelocate reads a physical page for relocation, retrying
// transient read faults (flash.ErrReadFault) a bounded number of times.
func (f *FTL) readForRelocate(ppa PPA) (flash.ReadResult, error) {
	raw, err := f.chip.Read(ppa.Block, ppa.Page)
	for attempt := 1; err != nil && errors.Is(err, flash.ErrReadFault) && attempt < relocReadAttempts; attempt++ {
		f.relocRetries++
		raw, err = f.chip.Read(ppa.Block, ppa.Page)
	}
	return raw, err
}

// relocate rewrites lpa into stream dst (same stream = GC/refresh move,
// different stream = classification-driven promotion/demotion, §4.4).
func (f *FTL) relocate(lpa int64, dst StreamID) error {
	m, ok := f.lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	raw, err := f.readForRelocate(m.ppa)
	return f.relocateFrom(lpa, dst, raw, err)
}

// relocateFrom finishes a relocation whose source page has already been
// read (possibly as part of a batched victim read): salvage, decode,
// re-encode, program, remap — exactly relocate's tail.
func (f *FTL) relocateFrom(lpa int64, dst StreamID, raw flash.ReadResult, err error) error {
	m, ok := f.lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	pol := &f.streams[dst]
	if err != nil {
		if !errors.Is(err, flash.ErrReadFault) || !f.streams[m.stream].Approximate() {
			return fmt.Errorf("ftl: relocate read %v: %w", m.ppa, err)
		}
		// SPARE salvage: the medium cannot return the payload, but an
		// approximate stream must not wedge GC on a dying block. The
		// page moves as accounting-only with every bit marked suspect,
		// so reads report Degraded (loss is reported, never silent).
		raw = flash.ReadResult{DataLen: m.dataLen}
		f.salvagedPages++
		f.salvagedBytes += int64(m.dataLen)
		m.baseFlips += m.dataLen * 8
		f.obs.Record(obs.Event{Kind: obs.EvSalvage, LBA: lpa, Block: m.ppa.Block, Page: m.ppa.Page, Stream: int(m.stream), Aux: int64(m.dataLen)})
	}

	var stored []byte
	storedLen := pol.Scheme.Overhead(m.dataLen)
	baseFlips := m.baseFlips
	if raw.Data != nil {
		// Decode with the source scheme to repair what it can; what it
		// cannot repair crystallizes into the new copy.
		srcPol := &f.streams[m.stream]
		data, _, derr := srcPol.Scheme.Decode(raw.Data)
		if len(data) > m.dataLen {
			data = data[:m.dataLen]
		}
		if derr != nil {
			f.degradedReads++
		}
		stored, err = encodeFor(pol.Scheme, data)
		if err != nil {
			return err
		}
		storedLen = len(stored)
	} else {
		// Accounting page: the medium's accumulated flips crystallize
		// into the mapping so degradation survives the move.
		baseFlips += raw.FlippedTotal
	}

	// The digest travels with the page verbatim — never recomputed from
	// the (possibly decayed) medium — so it keeps describing the bytes
	// the host wrote. A relocation that crystallizes corruption therefore
	// leaves a digest mismatch behind for the auditor to find.
	// The lifetime hint travels with the page the same way: relocated
	// data keeps its predicted deathtime and lands in the destination
	// stream's matching bin, so same-deathtime data stays co-located
	// even across GC and demotion moves.
	b, page, err := f.programForRelocation(dst, lpa, m.dataLen, stored, storedLen, m.digest, m.hasDigest, m.hint)
	if err != nil {
		return err
	}
	f.gcMoves++

	f.invalidate(m.ppa)
	f.setMapping(lpa, mapping{ppa: PPA{Block: b, Page: page}, stream: dst, dataLen: m.dataLen, baseFlips: baseFlips, digest: m.digest, hasDigest: m.hasDigest, hint: m.hint})
	return nil
}

// programForRelocation programs one relocated page, absorbing
// program-status failures the same way the host write path does.
func (f *FTL) programForRelocation(dst StreamID, lpa int64, dataLen int, stored []byte, storedLen int, digest uint64, hasDigest bool, hint storage.LifetimeHint) (blk, page int, err error) {
	for attempt := 0; attempt < maxProgramAttempts; attempt++ {
		b, err := f.relocTarget(dst, hint)
		if err != nil {
			return -1, -1, err
		}
		// Serial stamped after the destination is secured, and afresh per
		// attempt: a program-status failure can leave a readable tag
		// behind, and the successful copy must outrank it at rebuild.
		f.writeSerial++
		tag := flash.PageTag{LPA: lpa, Stream: uint8(dst), DataLen: int32(dataLen), Serial: f.writeSerial, Digest: digest, HasDigest: hasDigest, Hint: uint8(hint)}
		page := f.blocks[b].fullPages
		perr := f.chip.ProgramTagged(b, page, stored, storedLen, tag)
		if perr == nil {
			f.blocks[b].fullPages++
			f.blocks[b].valid++
			f.flashPrograms++
			f.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: lpa, Block: b, Page: page, Stream: int(dst), Aux: int64(dataLen)})
			return b, page, nil
		}
		if !errors.Is(perr, flash.ErrProgramFail) {
			return -1, -1, fmt.Errorf("ftl: relocate program: %w", perr)
		}
		f.sealFailedBlock(b)
	}
	return -1, -1, fmt.Errorf("ftl: relocation hit %d consecutive program failures: %w",
		maxProgramAttempts, flash.ErrProgramFail)
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
