package storage

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/obs"
)

// The reclaim policy both backends run (§4.3): greedy, unlevelled GC
// for SPARE, cost-benefit GC for SYS, scrub-driven refresh, and
// dead-data-aware parking. It is written once, over erase units — an
// ftl block, a zns zone — and the mapping tables that index them.
// A backend keeps each unit's state current in Units and answers the
// few questions that differ between a block and a zone through
// UnitOps, one call per pass, victim, candidate or moved page; the
// scans themselves read only slices.

// MaxProgramAttempts is how many programs one page may attempt — in
// total across a batched program and its slow-path retries — before its
// program-status failures surface.
const MaxProgramAttempts = 4

// maxVictimParks bounds how many consecutive GC passes may park the
// same victim on a predicted-death bet before it is collected anyway,
// so a wrong prediction cannot wedge reclamation.
const maxVictimParks = 4

// Mapping is a live L2P entry: the erase unit and page index a logical
// page lives at, and what travels with it through every relocation.
type Mapping struct {
	Unit, Index int
	Stream      StreamID
	// DataLen is the logical payload length; a live entry has
	// DataLen >= 1, so the zero Mapping marks a free L2P pool entry.
	DataLen int
	// BaseFlips carries degradation crystallized across relocations of
	// accounting-only pages (payload pages carry it in their bytes).
	BaseFlips int
	// Digest mirrors the page's OOB tag digest (Backend.Digest) and Hint
	// its lifetime bin (Backend.Hint). Relocation copies both verbatim,
	// so the digest always hashes the original host payload and
	// relocated data keeps its predicted deathtime.
	Digest    uint64
	HasDigest bool
	Hint      LifetimeHint
}

// Unit is one erase unit as the reclaim policy sees it. The backend
// keeps it current; the policy itself writes only Parks.
type Unit struct {
	Live       int // live pages
	Stale      int // superseded pages
	Programmed int // pages programmed so far: the page-scan bound
	Owner      StreamID
	// Pending counts batch placements reserved in the unit but not yet
	// settled. The policy never sweeps, picks or parks such a unit: its
	// counts are optimistic and its pages not all programmed.
	Pending int32
	Bin     LifetimeHint // lifetime bin the unit collects
	InUse   bool         // allocated: neither free nor out of service
	// Condemned units take no further programs; GC drains them first
	// and they leave service at reset.
	Condemned bool
	// Parks counts consecutive GC victim deferrals.
	Parks uint8
}

// UnitOps is what the reclaim policy asks of its backend.
type UnitOps interface {
	// FreeUnits returns how many units are free for allocation.
	FreeUnits() int
	// Wear returns unit u's wear fraction for cost-benefit scoring.
	Wear(u int) (float64, error)
	// PageAddr returns the chip address of page idx of unit u.
	PageAddr(u, idx int) (PPA, error)
	// Remap programs mv, the relocated copy of the page lpa maps to at
	// old, under tag (whose Stream is the destination), without running
	// GC, and points lpa at the copy.
	Remap(lpa int64, old Mapping, mv Moved, tag flash.PageTag) error
	// Reset erases a unit with no live pages and applies the backend's
	// wear policy to it.
	Reset(u int) error
	// Level runs after a GC pass that reclaimed a victim or found none
	// (the ftl's static wear leveling).
	Level(prefer StreamID)
	// UsablePages returns the advertised capacity (Backend.UsablePages).
	UsablePages() int
}

// ReclaimConfig sizes a Reclaimer.
type ReclaimConfig struct {
	// Name prefixes error messages ("ftl", "zns").
	Name    string
	Chip    Flash
	Streams []StreamPolicy
	Obs     *obs.Recorder
	Ops     UnitOps
	// Units is the erase-unit count, Stride the P2L row length (the
	// unit's page count at native density), and BlocksPerUnit the erase
	// blocks a unit spans (ScrubReport.BlocksFreed counts blocks).
	Units, Stride, BlocksPerUnit int
	// LowWater is the free-unit count at which a GC pass stops after a
	// productive dead-unit sweep; Reserve is the relocation headroom
	// below which victims are never parked.
	LowWater, Reserve int
}

// Reclaimer is the reclaim policy and the state it runs over: the erase
// units, the active-unit slots, the mapping tables, the shared
// telemetry counters and the capacity-callback latch. It also resolves
// reads and checks the mapping tables. Both backends embed one, so its
// methods serve their storage.Backend surface.
type Reclaimer struct {
	// Units is the per-unit state the backend maintains.
	Units []Unit
	// Active holds the unit taking appends per (stream, lifetime bin)
	// slot (see ActiveSlot); -1 means none. Only Activate and Deactivate
	// write it, so an active unit's Owner and Bin always name its slot.
	Active []int
	// P2L is indexed by unit*stride+index, -1 meaning no live page. The
	// L2P side is private (l2p.go): backends reach it through Lookup,
	// SetMapping and ClearMapping.
	P2L []int64
	l2p l2pTable

	// Telemetry in the Stats vocabulary; Hinted counts host writes that
	// carried a lifetime hint.
	HostWrites    int64
	FlashPrograms int64
	GCRuns        int64
	GCMoves       int64
	DegradedReads int64
	ProgFailures  int64
	RelocRetries  int64
	SalvagedPages int64
	SalvagedBytes int64
	Hinted        int64

	name          string
	chip          Flash
	streams       []StreamPolicy
	obs           *obs.Recorder
	ops           UnitOps
	stride        int
	blocksPerUnit int
	lowWater      int
	reserve       int

	deadSkipDefers int64
	deadSkipPages  int64

	// skip marks units parked within one GC pass and skipped lists them,
	// so clearing is O(parked); dirty is Scrub's touched-unit set.
	skip    []bool
	skipped []int
	dirty   []bool
	// reloc is the relocation scratch (GC, scrub, reclassification);
	// relocations never nest, since their programs never run GC.
	reloc Relocation
	// rs runs ReadBatch; r1 runs Read, one op wide, so a per-op read
	// never recycles the buffers an outstanding batch's payloads alias
	// (see readEngine).
	rs, r1 readEngine
	r1op   [1]BatchReadOp
	r1fate [1]BatchReadFate

	onCapacity func(usablePages int)
	capDirty   bool
}

// Init sizes the reclaimer for cfg and empties every unit, slot and
// mapping.
func (r *Reclaimer) Init(cfg ReclaimConfig) {
	*r = Reclaimer{
		Units:         make([]Unit, cfg.Units),
		Active:        make([]int, len(cfg.Streams)*NumLifetimeHints),
		P2L:           make([]int64, cfg.Units*cfg.Stride),
		name:          cfg.Name,
		chip:          cfg.Chip,
		streams:       cfg.Streams,
		obs:           cfg.Obs,
		ops:           cfg.Ops,
		stride:        cfg.Stride,
		blocksPerUnit: cfg.BlocksPerUnit,
		lowWater:      cfg.LowWater,
		reserve:       cfg.Reserve,
		skip:          make([]bool, cfg.Units),
		dirty:         make([]bool, cfg.Units),
	}
	for i := range r.Active {
		r.Active[i] = -1
	}
	for i := range r.P2L {
		r.P2L[i] = -1
	}
}

// ActiveSlot maps a (stream, lifetime bin) pair to its active-unit
// slot. ActiveSlot(0, HintNone) == 0, so unhinted single-stream state
// lands where the pre-hint design kept it.
func ActiveSlot(id StreamID, h LifetimeHint) int {
	return int(id)*NumLifetimeHints + int(h)
}

// slotOf returns the active-unit slot unit u's Owner and Bin name.
func (r *Reclaimer) slotOf(u int) int {
	un := &r.Units[u]
	return ActiveSlot(un.Owner, un.Bin)
}

// Activate installs unit u as the active unit of the slot its Owner and
// Bin name.
func (r *Reclaimer) Activate(u int) { r.Active[r.slotOf(u)] = u }

// IsActive reports whether u is some slot's active unit.
func (r *Reclaimer) IsActive(u int) bool { return r.Active[r.slotOf(u)] == u }

// Deactivate clears u's slot if u holds it.
func (r *Reclaimer) Deactivate(u int) {
	if s := r.slotOf(u); r.Active[s] == u {
		r.Active[s] = -1
	}
}

// Lookup returns the live mapping for lpa, if any.
func (r *Reclaimer) Lookup(lpa int64) (Mapping, bool) {
	if m := r.l2p.get(lpa); m != nil {
		return *m, true
	}
	return Mapping{}, false
}

// SetMapping points lpa (0..MaxLPA) at m (m.DataLen >= 1) in both
// tables. Retiring the old location and counting the unit's live pages
// are the backend's business.
func (r *Reclaimer) SetMapping(lpa int64, m Mapping) {
	r.l2p.set(lpa, m)
	r.P2L[r.PageIndex(m.Unit, m.Index)] = lpa
}

// ClearMapping drops lpa's L2P entry; its P2L entry is cleared with the
// old location.
func (r *Reclaimer) ClearMapping(lpa int64) { r.l2p.clear(lpa) }

// PageIndex returns the P2L index of page idx of unit u.
func (r *Reclaimer) PageIndex(u, idx int) int { return u*r.stride + idx }

// Contains reports whether lpa is mapped.
func (r *Reclaimer) Contains(lpa int64) bool {
	_, ok := r.Lookup(lpa)
	return ok
}

// StreamOf returns the stream a mapped lpa belongs to.
func (r *Reclaimer) StreamOf(lpa int64) (StreamID, bool) {
	m, ok := r.Lookup(lpa)
	return m.Stream, ok
}

// Hint returns the recorded lifetime bin for a mapped lpa.
func (r *Reclaimer) Hint(lpa int64) (LifetimeHint, bool) {
	m, ok := r.Lookup(lpa)
	return m.Hint, ok
}

// Digest returns the recorded payload digest for a mapped lpa.
func (r *Reclaimer) Digest(lpa int64) (uint64, bool) {
	m, ok := r.Lookup(lpa)
	if !ok || !m.HasDigest {
		return 0, false
	}
	return m.Digest, true
}

// MappedPages returns the number of live logical pages.
func (r *Reclaimer) MappedPages() int { return r.l2p.mapped }

// Stats returns the shared telemetry; the backend fills in the
// unit-pool fields (Retired, Resuscitated, StaticWLMoves, FreeBlocks).
func (r *Reclaimer) Stats() Stats {
	return Stats{
		HostWrites:    r.HostWrites,
		FlashPrograms: r.FlashPrograms,
		GCRuns:        r.GCRuns,
		GCMoves:       r.GCMoves,
		DegradedReads: r.DegradedReads,
		ProgFailures:  r.ProgFailures,
		RelocRetries:  r.RelocRetries,
		SalvagedPages: r.SalvagedPages,
		SalvagedBytes: r.SalvagedBytes,
		MappedPages:   r.l2p.mapped,
	}
}

// WriteAmplification returns flash programs per host write (>= 1 once
// writes occurred).
func (r *Reclaimer) WriteAmplification() float64 {
	if r.HostWrites == 0 {
		return 0
	}
	return float64(r.FlashPrograms) / float64(r.HostWrites)
}

// HintedWrites returns the number of host writes that carried a
// non-None lifetime hint.
func (r *Reclaimer) HintedWrites() int64 { return r.Hinted }

// DeadSkipStats returns dead-data-aware GC telemetry: victims parked
// awaiting predicted deaths, and the live predicted-dead pages whose
// relocation those parks deferred.
func (r *Reclaimer) DeadSkipStats() (defers, pages int64) {
	return r.deadSkipDefers, r.deadSkipPages
}

// SetCapacityCallback installs the capacity-variance callback.
func (r *Reclaimer) SetCapacityCallback(fn func(usablePages int)) { r.onCapacity = fn }

// NotifyCapacity latches a capacity change (retirement, resuscitation,
// a mode switch) for delivery by FlushCapacity.
func (r *Reclaimer) NotifyCapacity() { r.capDirty = true }

// FlushCapacity delivers a latched capacity change. Public mutating
// operations defer it, so the callback never observes the backend
// mid-operation.
func (r *Reclaimer) FlushCapacity() {
	if !r.capDirty {
		return
	}
	r.capDirty = false
	if r.onCapacity != nil {
		r.onCapacity(r.ops.UsablePages())
	}
}

// RunGC runs one reclamation pass. Units with no live pages are reset
// first: they need no relocation destination, so the sweep makes
// progress even with an empty free pool. Then one live victim is
// reclaimed, preferring the requesting stream's units but falling back
// to any stream, because free units are a shared resource. The pass's
// GC event and sample include what Level moved.
func (r *Reclaimer) RunGC(prefer StreamID) {
	moves, runs := r.GCMoves, r.GCRuns
	r.collect(prefer)
	if r.GCRuns != runs {
		moves = r.GCMoves - moves
		r.obs.Record(obs.Event{Kind: obs.EvGC, Stream: int(prefer), Aux: moves})
		r.obs.ObserveGC(int(moves))
	}
}

func (r *Reclaimer) collect(prefer StreamID) {
	swept := false
	for u := range r.Units {
		un := &r.Units[u]
		// An unwritten condemned unit is left to the condemned-first
		// victim choice, which retires it.
		if !un.InUse || un.Live != 0 || un.Pending > 0 || (un.Programmed == 0 && un.Condemned) || r.IsActive(u) {
			continue
		}
		if err := r.ops.Reset(u); err == nil {
			r.GCRuns++
			swept = true
		}
	}
	if swept && r.ops.FreeUnits() > r.lowWater {
		return
	}
	victim := r.pickVictim(prefer)
	// Dead-data-aware deferral: a victim whose live pages are mostly
	// predicted to die soon is parked instead of reclaimed, and the pass
	// re-picks among the rest. Parked units come back next pass.
	for victim >= 0 && r.deferVictim(victim) {
		victim = r.pickVictim(prefer)
	}
	for _, u := range r.skipped {
		r.skip[u] = false
	}
	r.skipped = r.skipped[:0]
	if victim >= 0 {
		if err := r.Reclaim(victim); err != nil {
			// A reclaim failure (e.g. destination exhaustion) leaves the
			// victim as is; the caller surfaces ErrNoSpace.
			return
		}
		r.GCRuns++
	}
	r.ops.Level(prefer)
}

// pickVictim chooses the unit with the most reclaimable space, among
// the preferred stream's units first and then any stream's. Condemned
// units drain first, whatever their garbage. Wear-leveled (or
// explicitly cost-benefit) streams score stale / (live+1) scaled down
// by wear; the rest score pure greedy stale count — wear deliberately
// ignored, the paper's SPARE policy (§4.3).
func (r *Reclaimer) pickVictim(prefer StreamID) int {
	if v := r.scanVictims(prefer); v >= 0 {
		return v
	}
	return r.scanVictims(-1)
}

// scanVictims is one victim scan over the units of stream id (any
// stream if id < 0).
func (r *Reclaimer) scanVictims(id StreamID) int {
	best := -1
	bestScore := 0.0
	for u := range r.Units {
		un := &r.Units[u]
		if !un.InUse || (id >= 0 && un.Owner != id) || un.Pending > 0 || r.skip[u] || r.IsActive(u) {
			continue
		}
		if un.Condemned {
			return u
		}
		if un.Stale <= 0 {
			continue
		}
		pol := &r.streams[un.Owner]
		score := float64(un.Stale)
		if pol.GC == GCCostBenefit || (pol.GC == GCAuto && pol.WearLeveling) {
			wear, err := r.ops.Wear(u)
			if err != nil {
				continue
			}
			score = float64(un.Stale) / float64(un.Live+1) / (1 + wear)
		}
		if score > bestScore {
			bestScore = score
			best = u
		}
	}
	return best
}

// deferVictim decides whether dead-data-aware GC parks victim u for a
// later pass: at least half its live pages are hot-binned, predicted to
// die (TRIM or overwrite) before relocating them pays for itself. The
// decision is a pure function of OOB-persisted hints plus pool
// pressure, so a crash-rebuilt backend facing the same state parks
// identically (DESIGN.md §13). It never parks with no hinted writes
// (keeping GC byte-identical to pre-hint builds), a condemned unit, a
// unit past the park cap, or when the free pool is nearly exhausted.
func (r *Reclaimer) deferVictim(u int) bool {
	if r.Hinted == 0 {
		return false
	}
	un := &r.Units[u]
	if un.Condemned || un.Parks >= maxVictimParks {
		return false
	}
	if r.ops.FreeUnits() <= r.reserve+1 {
		return false // emergency reclamation cannot wait for deaths
	}
	hot := 0
	base := r.PageIndex(u, 0)
	for idx := 0; idx < un.Programmed; idx++ {
		if lpa := r.P2L[base+idx]; lpa >= 0 && r.l2p.get(lpa).Hint == HintHot {
			hot++
		}
	}
	if hot == 0 || hot*2 < un.Live {
		return false // relocating a minority of soon-dead pages is fine
	}
	un.Parks++
	r.deadSkipDefers++
	r.deadSkipPages += int64(hot)
	r.skip[u] = true
	r.skipped = append(r.skipped, u)
	return true
}

// Reclaim moves unit u's live pages, in page order, to their streams'
// active units and resets u. The pages are read as per-block runs — a
// unit's blocks are consecutive chip blocks, so page order visits each
// block (one plane) as a contiguous segment — then relocate in page
// order.
func (r *Reclaimer) Reclaim(u int) error {
	un := &r.Units[u]
	rl := &r.reloc
	rl.Reset()
	base := r.PageIndex(u, 0)
	for idx := 0; idx < un.Programmed; idx++ {
		lpa := r.P2L[base+idx]
		if lpa < 0 {
			continue
		}
		ppa, err := r.ops.PageAddr(u, idx)
		if err != nil {
			return err
		}
		m := r.l2p.get(lpa)
		rl.Add(lpa, ppa, r.streams[m.Stream].Scheme, m.DataLen)
	}
	if rl.Len() == 0 {
		return r.ops.Reset(u)
	}
	r.RelocRetries += rl.Read(r.chip)
	var err error
	for k := 0; k < rl.Len() && err == nil; k++ {
		lpa, op := rl.Page(k)
		err = r.relocateFrom(lpa, r.l2p.get(lpa).Stream, op)
	}
	rl.Release(r.chip)
	if err != nil {
		return err
	}
	return r.ops.Reset(u)
}

// relocate rewrites lpa into stream dst as a one-page relocation: the
// same stream for a GC or refresh move, another for a classification
// promotion or demotion (§4.4).
func (r *Reclaimer) relocate(lpa int64, dst StreamID) error {
	m, ok := r.Lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	ppa, err := r.ops.PageAddr(m.Unit, m.Index)
	if err != nil {
		return err
	}
	rl := &r.reloc
	rl.Reset()
	rl.Add(lpa, ppa, r.streams[m.Stream].Scheme, m.DataLen)
	r.RelocRetries += rl.Read(r.chip)
	_, op := rl.Page(0)
	err = r.relocateFrom(lpa, dst, op)
	rl.Release(r.chip)
	return err
}

// relocateFrom finishes a relocation whose source page op has been
// read: the relocation step (Relocation.Move), then the backend's
// program and remap. The digest and hint travel verbatim — never
// recomputed from the possibly decayed medium — so a move that
// crystallizes corruption leaves a digest mismatch for the auditor,
// and same-bin data stays co-located across GC and demotion moves.
func (r *Reclaimer) relocateFrom(lpa int64, dst StreamID, op *flash.ReadOp) error {
	m, ok := r.Lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	mv, err := r.reloc.Move(op, &r.streams[m.Stream], r.streams[dst].Scheme, m.DataLen, m.BaseFlips)
	if err != nil {
		return fmt.Errorf("%s: relocate %d/%d: %w", r.name, op.Block, op.Page, err)
	}
	if mv.Salvaged {
		r.SalvagedPages++
		r.SalvagedBytes += int64(m.DataLen)
		r.obs.Record(obs.Event{Kind: obs.EvSalvage, LBA: lpa, Block: op.Block, Page: op.Page, Stream: int(m.Stream), Aux: int64(m.DataLen)})
	}
	if mv.Degraded {
		r.DegradedReads++
	}
	tag := flash.PageTag{LPA: lpa, Stream: uint8(dst), DataLen: int32(m.DataLen), Digest: m.Digest, HasDigest: m.HasDigest, Hint: uint8(m.Hint)}
	if err := r.ops.Remap(lpa, m, mv, tag); err != nil {
		return err
	}
	r.GCMoves++
	return nil
}

// Relocate moves a logical page to stream dst: classifier-driven
// demotion (SYS -> SPARE), cloud-repair promotion, or an in-stream
// refresh. When no destination is free it runs GC and retries once.
func (r *Reclaimer) Relocate(lpa int64, dst StreamID) error {
	defer r.FlushCapacity()
	if dst < 0 || int(dst) >= len(r.streams) {
		return ErrUnknownStream
	}
	err := r.relocate(lpa, dst)
	if errors.Is(err, ErrNoSpace) {
		r.RunGC(dst)
		err = r.relocate(lpa, dst)
	}
	return err
}

// Scrub is the degradation monitor (§4.3): it walks live pages in LPA
// order, and any page whose modelled RBER reaches its stream's retire
// threshold is relocated, refreshing its charge and crystallizing
// uncorrectable damage. Units the pass drained are then reset in unit
// order, which applies the backend's wear policy. maxMoves bounds the
// relocations per pass (0 = unlimited). Relocation rewrites existing
// entries in place and never maps new LPAs, so the walk visits exactly
// the pages live when the pass started.
func (r *Reclaimer) Scrub(maxMoves int) (ScrubReport, error) {
	defer r.FlushCapacity()
	var rep ScrubReport
	// Cleared on entry rather than exit: an error return mid-pass must
	// not leak dirty bits into the next pass.
	clear(r.dirty)
	for lpa := r.l2p.next(0); lpa >= 0; lpa = r.l2p.next(lpa + 1) {
		m := *r.l2p.get(lpa)
		rep.PagesChecked++
		ppa, err := r.ops.PageAddr(m.Unit, m.Index)
		if err != nil {
			continue
		}
		rber, err := r.chip.PageRBER(ppa.Block, ppa.Page)
		if err != nil {
			continue
		}
		threshold := r.streams[m.Stream].RetireRBER
		if threshold == 0 {
			threshold = DefaultRetireRBER
		}
		if rber < threshold {
			continue
		}
		if maxMoves > 0 && rep.PagesRelocated >= maxMoves {
			break
		}
		if err := r.relocate(lpa, m.Stream); err != nil {
			return rep, err
		}
		r.dirty[m.Unit] = true
		rep.PagesRelocated++
	}
	for u, touched := range r.dirty {
		un := &r.Units[u]
		if !touched || !un.InUse || un.Live != 0 || r.IsActive(u) {
			continue
		}
		if err := r.ops.Reset(u); err != nil {
			return rep, err
		}
		rep.BlocksFreed += r.blocksPerUnit
	}
	r.obs.Record(obs.Event{Kind: obs.EvScrub, Aux: int64(rep.PagesRelocated)})
	r.obs.ObserveScrub(rep.PagesRelocated)
	return rep, nil
}
