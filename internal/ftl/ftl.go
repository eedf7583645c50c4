// Package ftl implements a page-mapped flash translation layer with
// multi-stream support: each stream carries its own operating mode
// (e.g. pseudo-QLC vs native PLC), ECC scheme, and wear-leveling policy.
// This is the co-design surface of the paper (§4.3): the host tags data
// with a stream (SYS or SPARE) and the device manages each stream's
// blocks under different rules — strong protection and wear leveling for
// SYS, approximate storage with wear leveling disabled for SPARE, plus
// block retirement, pseudo-mode resuscitation, and capacity variance.
package ftl

import (
	"errors"
	"fmt"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// Exported errors. They are the shared storage-package sentinels, so
// errors.Is tests work identically through either backend.
var (
	ErrNoSpace       = storage.ErrNoSpace
	ErrUnknownLPA    = storage.ErrUnknownLPA
	ErrUnknownStream = storage.ErrUnknownStream
	ErrPayloadSize   = storage.ErrPayloadSize
	ErrBadLPA        = storage.ErrBadLPA
)

// The stream, addressing, and telemetry vocabulary moved to
// internal/storage when the Backend interface was extracted; these
// aliases keep this package's historical surface intact.
type (
	// StreamID names a stream. Streams are dense small integers.
	StreamID = storage.StreamID
	// GCPolicy selects the victim-scoring rule for a stream's GC.
	GCPolicy = storage.GCPolicy
	// StreamPolicy is the per-stream management contract.
	StreamPolicy = storage.StreamPolicy
	// PPA is a physical page address.
	PPA = storage.PPA
	// ReadResult is the outcome of a logical read.
	ReadResult = storage.ReadResult
	// ScrubReport summarizes one scrub pass.
	ScrubReport = storage.ScrubReport
	// Stats is FTL telemetry.
	Stats = storage.Stats
)

// GC policies (re-exported).
const (
	GCAuto        = storage.GCAuto
	GCGreedy      = storage.GCGreedy
	GCCostBenefit = storage.GCCostBenefit
)

// DefaultRetireRBER retires a block when its current-write RBER passes
// half the end-of-life threshold.
const DefaultRetireRBER = storage.DefaultRetireRBER

// blockState tracks FTL-side per-block bookkeeping.
type blockState struct {
	owner     StreamID             // valid when allocated
	hint      storage.LifetimeHint // lifetime bin the block collects (valid when allocated)
	allocated bool
	valid     int // live pages
	stale     int // superseded pages
	fullPages int // pages programmed so far
	retired   bool
	resuscIdx int // next index into the owner's Resuscitate ladder
	// progFailed marks a block whose program status failed: no further
	// programs; GC drains it with priority and it retires at erase.
	progFailed bool
	// parks counts consecutive GC victim deferrals (dead-data-aware GC
	// waiting for predicted-dead pages to actually die); capped so a
	// wrong prediction cannot stall reclamation forever.
	parks uint8
}

// mapping is the L2P entry.
type mapping struct {
	ppa     PPA
	stream  StreamID
	dataLen int // logical payload length
	// baseFlips carries degradation accumulated before the page's last
	// relocation (accounting-only pages; payload pages carry corruption
	// in the bytes themselves).
	baseFlips int
	// digest mirrors the page's OOB tag digest (storage.Backend.Digest) so
	// verification and relocation read it without a chip op. Relocation
	// copies it verbatim: it always hashes the original host payload.
	digest    uint64
	hasDigest bool
	// hint mirrors the page's OOB lifetime bin (storage.Backend.Hint) so
	// dead-data-aware GC scans it without a chip op. Relocation carries
	// it verbatim: relocated data keeps its predicted deathtime.
	hint storage.LifetimeHint
}

// FTL is the translation layer over a single chip (or any Flash, e.g. a
// fault-injection interposer).
type FTL struct {
	chip    Flash
	streams []StreamPolicy
	obs     *obs.Recorder // nil disables tracing

	// Dense mapping tables — the hot-path replacement for hash maps.
	// l2p is indexed directly by LPA (the logical address space is dense
	// and non-negative: the fs hands out LBAs sequentially) and grows on
	// demand with amortized doubling; an entry with dataLen == 0 is
	// unmapped (live mappings always carry dataLen >= 1). p2l is indexed
	// by block*ppb+page, sized once from the geometry (native mode has
	// the most pages per block); -1 means no live logical page. mapped
	// counts live entries.
	l2p    []mapping
	p2l    []int64
	ppb    int // native pages per block: the p2l row stride
	mapped int

	// scrubDirty is reusable scratch for Scrub's touched-block set, so a
	// scrub pass allocates no per-call map.
	scrubDirty []bool

	// pendingProgs counts batch placements per block that have been
	// reserved (page cursor advanced, descriptor issued) but not yet
	// settled. Reclamation — victim selection, dead-block sweeps, static
	// wear leveling — must not touch a block with pending placements:
	// GC relocations would program at stale cursors and static WL would
	// move pages that are not programmed yet. pendingCnt is the total,
	// for a cheap all-clear test. See batch.go.
	pendingProgs []int32
	pendingCnt   int

	// bs is the batched-write scratch; every slice and map in it is
	// reused across WriteBatch calls so steady-state batches allocate
	// nothing.
	bs batchScratch
	// rs runs ReadBatch; r1 runs Read, one op wide, so a per-op read
	// never recycles the buffers an outstanding batch's payloads alias
	// (see storage.ReadEngine).
	rs, r1 storage.ReadEngine
	// One-op scratch for Write and Read: per-op calls are batches of one.
	w1op   [1]storage.BatchOp
	w1fate [1]storage.BatchFate
	r1op   [1]storage.BatchReadOp
	r1fate [1]storage.BatchReadFate
	// reloc is the relocation scratch (GC, scrub, reclassification);
	// wenc is writeOne's encode buffer. They are separate because
	// writeOne's program may run GC, which relocates.
	reloc storage.Relocation
	wenc  []byte

	blocks   []blockState
	freePool []int // erased, unallocated block ids
	// active holds the active (partially programmed) block per
	// (stream, lifetime bin) slot, indexed by aidx; -1 means none. The
	// HintNone column is the pre-hint behavior: unhinted writes see
	// exactly one active block per stream, as they always did.
	active    []int
	gcLow     int // free-pool low-water mark triggering GC
	reserve   int // blocks permanently held back (over-provisioning)
	logicalSz int // logical payload bytes per page

	// gcSkip marks blocks the current GC pass deferred (dead-data-aware
	// victim parking) so re-picks exclude them; gcSkipped lists the
	// marked blocks for O(parked) clearing. Both are reusable scratch —
	// see runGC.
	gcSkip    []bool
	gcSkipped []int

	// Telemetry.
	hostWrites    int64 // host-initiated page writes
	flashPrograms int64 // total page programs incl. GC
	gcRuns        int64
	gcMoves       int64
	retiredCnt    int64
	resuscCnt     int64
	degradedReads int64  // reads whose ECC failed (returned degraded data)
	progFailures  int64  // program-status failures absorbed
	staticWLMoves int64  // static wear-leveling relocations
	relocRetries  int64  // transient read faults retried during relocation
	salvagedPages int64  // pages relocated with unreadable payload (SPARE salvage)
	salvagedBytes int64  // logical bytes crystallized as lost by salvage
	allocsSinceWL int    // rate limiter for static WL checks
	writeSerial   uint64 // monotone OOB serial for rebuilds
	// Dead-data-aware GC telemetry (backend-local: storage.Stats is
	// golden-coupled and must not grow fields).
	hintedWrites   int64 // writes carrying a non-None lifetime hint
	deadSkipDefers int64 // GC victims parked awaiting predicted deaths
	deadSkipPages  int64 // live predicted-dead pages whose relocation was deferred

	// OnCapacityChange, when set, fires after retirement,
	// resuscitation, or an allocation-time mode switch changes the
	// usable page count. Delivery is deferred to the end of the public
	// operation that caused it.
	OnCapacityChange func(usablePages int)
	capDirty         bool

	// origCfg is the configuration New was called with, kept so
	// Recover can remount an identical FTL over the surviving medium.
	origCfg Config
}

// Config configures an FTL.
type Config struct {
	// Chip is the medium: a *flash.Chip or any Flash wrapper around one.
	Chip    Flash
	Streams []StreamPolicy
	// OverProvisionPct of blocks reserved for GC headroom (default 7).
	OverProvisionPct int
	// GCLowWater is the free-block count that triggers GC (default 4).
	GCLowWater int
	// Obs, when non-nil, receives page-level and block-lifecycle trace
	// events. Recording only reads FTL state, so a recorder never
	// perturbs a deterministic run.
	Obs *obs.Recorder
}

// New builds the FTL, validating stream policies against the chip.
func New(cfg Config) (*FTL, error) {
	if cfg.Chip == nil {
		return nil, errors.New("ftl: nil chip")
	}
	if len(cfg.Streams) == 0 {
		return nil, errors.New("ftl: at least one stream required")
	}
	geo := cfg.Chip.Geometry()
	for i, s := range cfg.Streams {
		if s.Scheme == nil {
			return nil, fmt.Errorf("ftl: stream %d (%s) has no ECC scheme", i, s.Name)
		}
		if !s.Mode.Valid() || s.Mode.Phys != cfg.Chip.Tech() {
			return nil, fmt.Errorf("ftl: stream %d (%s) mode %v invalid for %v chip",
				i, s.Name, s.Mode, cfg.Chip.Tech())
		}
		if over := s.Scheme.Overhead(geo.PageSize); over > geo.RawPageBytes() {
			return nil, fmt.Errorf("ftl: stream %d (%s): scheme %s needs %d bytes/page, chip offers %d",
				i, s.Name, s.Scheme.Name(), over, geo.RawPageBytes())
		}
		if s.WearRetireFrac < 0 || s.WearRetireFrac > 3 {
			return nil, fmt.Errorf("ftl: stream %d (%s): wear retire fraction %v out of range [0, 3]",
				i, s.Name, s.WearRetireFrac)
		}
		for _, bits := range s.Resuscitate {
			if _, err := flash.PseudoMode(cfg.Chip.Tech(), bits); err != nil {
				return nil, fmt.Errorf("ftl: stream %d (%s): bad resuscitation density %d: %v",
					i, s.Name, bits, err)
			}
			if bits >= s.Mode.OpBits {
				return nil, fmt.Errorf("ftl: stream %d (%s): resuscitation density %d not below mode %v",
					i, s.Name, bits, s.Mode)
			}
		}
	}
	op := cfg.OverProvisionPct
	if op == 0 {
		op = 7
	}
	if op < 0 || op >= 50 {
		return nil, fmt.Errorf("ftl: over-provisioning %d%% out of range", op)
	}
	low := cfg.GCLowWater
	if low == 0 {
		low = 4
	}
	reserve := cfg.Chip.Blocks() * op / 100
	if reserve < 1 {
		reserve = 1
	}
	// GC must engage before host allocation reaches the reserve floor,
	// or reclamation would have no destination blocks.
	if low < reserve+2 {
		low = reserve + 2
	}

	f := &FTL{
		chip:      cfg.Chip,
		streams:   cfg.Streams,
		obs:       cfg.Obs,
		p2l:       make([]int64, cfg.Chip.Blocks()*geo.PagesPerBlock),
		ppb:       geo.PagesPerBlock,
		blocks:    make([]blockState, cfg.Chip.Blocks()),
		active:    make([]int, len(cfg.Streams)*storage.NumLifetimeHints),
		gcSkip:    make([]bool, cfg.Chip.Blocks()),
		gcLow:     low,
		reserve:   reserve,
		logicalSz: geo.PageSize,
		origCfg:   cfg,
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for i := range f.active {
		f.active[i] = -1
	}
	for b := 0; b < cfg.Chip.Blocks(); b++ {
		f.freePool = append(f.freePool, b)
	}
	return f, nil
}

// LogicalPageSize returns the payload bytes per logical page.
func (f *FTL) LogicalPageSize() int { return f.logicalSz }

// Streams returns the configured stream policies.
func (f *FTL) Streams() []StreamPolicy { return f.streams }

// Chip exposes the underlying medium (telemetry, experiments).
func (f *FTL) Chip() Flash { return f.chip }

// policy returns the policy for id, or an error.
func (f *FTL) policy(id StreamID) (*StreamPolicy, error) {
	if id < 0 || int(id) >= len(f.streams) {
		return nil, ErrUnknownStream
	}
	return &f.streams[id], nil
}

// pidx converts a physical page address to its p2l table index.
func (f *FTL) pidx(ppa PPA) int { return ppa.Block*f.ppb + ppa.Page }

// lookup returns the live mapping for lpa, if any.
func (f *FTL) lookup(lpa int64) (mapping, bool) {
	if lpa < 0 || lpa >= int64(len(f.l2p)) || f.l2p[lpa].dataLen == 0 {
		return mapping{}, false
	}
	return f.l2p[lpa], true
}

// setMapping installs lpa -> m (m.dataLen must be >= 1) and the reverse
// entry, growing l2p on demand.
func (f *FTL) setMapping(lpa int64, m mapping) {
	if lpa >= int64(len(f.l2p)) {
		f.growL2P(lpa)
	}
	if f.l2p[lpa].dataLen == 0 {
		f.mapped++
	}
	f.l2p[lpa] = m
	f.p2l[f.pidx(m.ppa)] = lpa
}

// growL2P extends the dense table to cover lpa, at least doubling so
// sequential LBA allocation amortizes to O(1) per write.
func (f *FTL) growL2P(lpa int64) {
	n := 2 * int64(len(f.l2p))
	if n < lpa+1 {
		n = lpa + 1
	}
	grown := make([]mapping, n)
	copy(grown, f.l2p)
	f.l2p = grown
}

// clearMapping drops the l2p entry for lpa (the reverse entry is the
// caller's business — invalidate handles it).
func (f *FTL) clearMapping(lpa int64) {
	if lpa >= 0 && lpa < int64(len(f.l2p)) && f.l2p[lpa].dataLen != 0 {
		f.l2p[lpa] = mapping{}
		f.mapped--
	}
}

// aidx maps a (stream, lifetime bin) pair to its active-block slot.
func aidx(id StreamID, h storage.LifetimeHint) int {
	return int(id)*storage.NumLifetimeHints + int(h)
}

// allocBlock takes a block from the free pool for the stream and bin,
// honoring the stream's wear-leveling policy, and sets the operating
// mode.
func (f *FTL) allocBlock(id StreamID, h storage.LifetimeHint) (int, error) {
	pol := &f.streams[id]
	if len(f.freePool) == 0 {
		return -1, ErrNoSpace
	}
	idx := len(f.freePool) - 1 // LIFO: reuse the hottest block (no WL)
	if pol.WearLeveling {
		// Min-wear allocation: classic dynamic wear leveling.
		best := 0
		bestPEC := int(^uint(0) >> 1)
		for i, b := range f.freePool {
			info, err := f.chip.Info(b)
			if err != nil {
				return -1, err
			}
			if info.PEC < bestPEC {
				bestPEC = info.PEC
				best = i
			}
		}
		idx = best
	}
	b := f.freePool[idx]
	f.freePool = append(f.freePool[:idx], f.freePool[idx+1:]...)

	info, err := f.chip.Info(b)
	if err != nil {
		return -1, err
	}
	want := pol.Mode
	// A resuscitated block stays at its reduced density even though the
	// stream's nominal mode is denser.
	if f.blocks[b].resuscIdx > 0 && f.blocks[b].resuscIdx <= len(pol.Resuscitate) {
		bits := pol.Resuscitate[f.blocks[b].resuscIdx-1]
		m, err := flash.PseudoMode(f.chip.Tech(), bits)
		if err != nil {
			return -1, err
		}
		want = m
	}
	if info.Mode != want {
		if err := f.chip.SetMode(b, want); err != nil {
			return -1, err
		}
		// A mode switch changes the block's page count and therefore
		// the device's usable capacity; notify when safe.
		f.capDirty = true
	}
	st := &f.blocks[b]
	st.owner = id
	st.hint = h
	st.allocated = true
	st.valid = 0
	st.stale = 0
	st.fullPages = 0
	st.parks = 0
	return b, nil
}

// activeWritable returns the (stream, bin) slot's current active block
// if it still has room, rotating it out when full. Returns -1 when a new
// allocation is needed.
func (f *FTL) activeWritable(id StreamID, h storage.LifetimeHint) (int, error) {
	b := f.active[aidx(id, h)]
	if b < 0 {
		return -1, nil
	}
	pages, err := f.chip.PagesIn(b)
	if err != nil {
		return -1, err
	}
	if f.blocks[b].fullPages < pages {
		return b, nil
	}
	// Block full; it remains owned by the stream for GC accounting.
	f.active[aidx(id, h)] = -1
	return -1, nil
}

// writableActive returns the (stream, bin) slot's active block with
// space for one more page, allocating or rotating blocks as needed.
func (f *FTL) writableActive(id StreamID, h storage.LifetimeHint) (int, error) {
	if b, err := f.activeWritable(id, h); err != nil || b >= 0 {
		return b, err
	}
	// Reclaim until the pool is healthy or GC stops making progress.
	for len(f.freePool) <= f.gcLow {
		prev := f.gcRuns
		f.runGC(id)
		if f.gcRuns == prev {
			break
		}
	}
	// GC relocation may have installed a fresh active block for this
	// slot; reuse it rather than stranding it behind a new allocation.
	if b, err := f.activeWritable(id, h); err != nil || b >= 0 {
		return b, err
	}
	// Host allocations never drain the reserve: those blocks are GC's
	// relocation headroom (real SSD over-provisioning).
	if len(f.freePool) <= f.reserve {
		return -1, ErrNoSpace
	}
	// Periodically check static wear leveling for leveled streams
	// (cold blocks otherwise never re-enter rotation). Rate-limited:
	// sweeping a cold block costs a whole block's worth of relocation,
	// so doing it on every allocation would dominate write
	// amplification.
	f.allocsSinceWL++
	if f.allocsSinceWL >= staticWLCheckEvery {
		f.allocsSinceWL = 0
		f.maybeStaticWL(id)
		if b, err := f.activeWritable(id, h); err != nil || b >= 0 {
			// Static WL may have installed an active block.
			return b, err
		}
	}
	nb, err := f.allocBlock(id, h)
	if err != nil {
		return -1, err
	}
	f.active[aidx(id, h)] = nb
	return nb, nil
}

// Write stores data (length <= LogicalPageSize) at lpa under the given
// stream: a one-op WriteBatch. A nil data with dataLen > 0 performs an
// accounting-only write (no payload stored; error counts still
// modelled).
func (f *FTL) Write(lpa int64, data []byte, dataLen int, id StreamID) error {
	// The result is read before the deferred capacity callback runs, so
	// a callback that writes again cannot overwrite it.
	defer f.flushCapacity()
	f.w1op[0] = storage.BatchOp{LPA: lpa, Data: data, DataLen: dataLen, Stream: id}
	f.writeBatch(f.w1op[:], f.w1fate[:], 1, 1)
	f.w1op[0] = storage.BatchOp{}
	return f.w1fate[0].Err
}

// Hint returns the recorded lifetime bin for a mapped lpa
// (storage.Backend).
func (f *FTL) Hint(lpa int64) (storage.LifetimeHint, bool) {
	m, ok := f.lookup(lpa)
	if !ok {
		return storage.HintNone, false
	}
	return m.hint, true
}

// Digest returns the recorded payload digest for a mapped lpa
// (storage.Backend).
func (f *FTL) Digest(lpa int64) (uint64, bool) {
	m, ok := f.lookup(lpa)
	if !ok || !m.hasDigest {
		return 0, false
	}
	return m.digest, true
}

// maxProgramAttempts is how many programs one write may attempt, in
// total across its batched program and slow-path retries, before its
// program-status failures reach the host.
const maxProgramAttempts = 4

// writeOne is WriteBatch's slow path for a validated op — encode,
// program (GC, allocation, and static wear leveling all permitted),
// mapping update — returning where the page landed. attempts is the
// op's remaining program budget.
func (f *FTL) writeOne(op *storage.BatchOp, attempts int) (int, int, error) {
	pol := &f.streams[op.Stream]
	dataLen, storedLen := op.DataLen, pol.Scheme.Overhead(op.DataLen)
	var stored []byte
	if op.Data != nil {
		var err error
		if stored, err = ecc.EncodeToBuf(pol.Scheme, f.wenc, op.Data); err != nil {
			return -1, -1, err
		}
		f.wenc = stored
		dataLen, storedLen = len(op.Data), len(stored)
	}
	// The serial is stamped by program once the destination is secured.
	tag := flash.PageTag{LPA: op.LPA, Stream: uint8(op.Stream), DataLen: int32(dataLen), Digest: op.Digest, HasDigest: op.HasDigest, Hint: uint8(op.Hint)}
	b, page, err := f.program(stored, storedLen, tag, attempts, true)
	if err != nil {
		return -1, -1, err
	}
	f.hostWrites++
	if op.Hint != storage.HintNone {
		f.hintedWrites++
	}

	// Supersede the old location.
	if old, ok := f.lookup(op.LPA); ok {
		f.invalidate(old.ppa)
	}
	f.setMapping(op.LPA, mapping{ppa: PPA{Block: b, Page: page}, stream: op.Stream, dataLen: dataLen, digest: op.Digest, hasDigest: op.HasDigest, hint: op.Hint})
	return b, page, nil
}

// program programs one page, tagged for rebuild, into the active block
// of the tag's (stream, bin) slot, absorbing program-status failures: a
// failed block is sealed (no further programs), flagged for priority
// draining and retirement, and the program retries on a fresh block,
// up to attempts programs in all. Host programs (host true) may run GC
// to find room; relocations, which GC itself issues, may not — they
// dip into the reserve instead.
func (f *FTL) program(stored []byte, storedLen int, tag flash.PageTag, attempts int, host bool) (blk, page int, err error) {
	id, hint := StreamID(tag.Stream), storage.LifetimeHint(tag.Hint)
	for attempt := 0; attempt < attempts; attempt++ {
		var b int
		var err error
		if host {
			b, err = f.writableActive(id, hint)
		} else {
			b, err = f.relocTarget(id, hint)
		}
		if err != nil {
			return -1, -1, err
		}
		// The serial is taken only after the destination is secured:
		// writableActive may run GC, and GC relocations stamp serials of
		// their own. Stamping earlier would let a relocated stale copy of
		// this very LPA carry a newer serial than the write being acked —
		// and win the rebuild election after a crash (silent loss). A
		// fresh serial per attempt also keeps a successful retry ahead of
		// any readable tag a failed program left behind.
		f.writeSerial++
		tag.Serial = f.writeSerial
		page := f.blocks[b].fullPages
		perr := f.chip.ProgramTagged(b, page, stored, storedLen, tag)
		if perr == nil {
			f.blocks[b].fullPages++
			f.blocks[b].valid++
			f.flashPrograms++
			f.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: tag.LPA, Block: b, Page: page, Stream: int(id), Aux: int64(tag.DataLen)})
			return b, page, nil
		}
		if !errors.Is(perr, flash.ErrProgramFail) {
			return -1, -1, fmt.Errorf("ftl: program %d/%d: %w", b, page, perr)
		}
		f.sealFailedBlock(b)
	}
	return -1, -1, fmt.Errorf("ftl: %d consecutive program failures: %w", maxProgramAttempts, flash.ErrProgramFail)
}

// sealBlock marks a block as taking no further programs: GC drains it
// with priority and it retires at erase time.
func (f *FTL) sealBlock(b int) {
	st := &f.blocks[b]
	st.progFailed = true
	// Freeze the programmed-page count at the chip's cursor.
	if info, err := f.chip.Info(b); err == nil {
		st.fullPages = info.NextPage
	}
	if s := aidx(st.owner, st.hint); f.active[s] == b {
		f.active[s] = -1
	}
}

// sealFailedBlock seals a block after a program-status failure.
func (f *FTL) sealFailedBlock(b int) {
	f.sealBlock(b)
	f.progFailures++
}

// invalidate marks a physical page stale and updates block accounting.
func (f *FTL) invalidate(ppa PPA) {
	if err := f.chip.MarkStale(ppa.Block, ppa.Page); err == nil {
		st := &f.blocks[ppa.Block]
		st.valid--
		st.stale++
	}
	f.p2l[f.pidx(ppa)] = -1
}

// ReadBatch implements storage.Backend: the FTL resolves every op
// against its L2P table in canonical order and the shared read engine
// runs the read, decode, and settle phases. fates[i] records the
// outcome of ops[i]; results are identical for every (queues, workers)
// pair.
func (f *FTL) ReadBatch(ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	f.readBatch(&f.rs, ops, fates, queues, workers)
}

// Read fetches lpa, decoding through the stream's ECC scheme: a one-op
// batch on the FTL's one-op engine. The payload stays valid until the
// next Read.
func (f *FTL) Read(lpa int64) (ReadResult, error) {
	f.r1op[0] = storage.BatchReadOp{LPA: lpa}
	f.readBatch(&f.r1, f.r1op[:], f.r1fate[:], 1, 1)
	return f.r1fate[0].Res, f.r1fate[0].Err
}

// readBatch is the resolve pass: unmapped LPAs get their final fate
// here; mapped ops go to the engine with everything later phases need,
// so no phase touches the L2P table concurrently.
func (f *FTL) readBatch(e *storage.ReadEngine, ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	e.Begin(f.chip, len(ops))
	for i := range ops {
		fates[i] = storage.BatchReadFate{Block: -1, Page: -1}
		m, ok := f.lookup(ops[i].LPA)
		if !ok {
			fates[i].Err = ErrUnknownLPA
			continue
		}
		fates[i].Block, fates[i].Page = m.ppa.Block, m.ppa.Page
		e.Add(i, ops[i].LPA, m.ppa, m.stream, f.streams[m.stream].Scheme, m.dataLen, m.baseFlips)
	}
	f.degradedReads += e.Run(ops, fates, queues, workers, "ftl", f.obs)
}

// Trim drops the mapping for lpa (host discard / file delete).
func (f *FTL) Trim(lpa int64) error {
	m, ok := f.lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	f.invalidate(m.ppa)
	f.clearMapping(lpa)
	return nil
}

// Contains reports whether lpa is mapped.
func (f *FTL) Contains(lpa int64) bool {
	_, ok := f.lookup(lpa)
	return ok
}

// StreamOf returns the stream a mapped lpa belongs to.
func (f *FTL) StreamOf(lpa int64) (StreamID, bool) {
	m, ok := f.lookup(lpa)
	return m.stream, ok
}

// Locate reports where a mapped lpa physically lives, its stream, and
// its logical payload length. The device layer's fault ladder uses it
// to escalate repeated hard read faults into block retirement and to
// salvage what it can of an unreadable page.
func (f *FTL) Locate(lpa int64) (ppa PPA, stream StreamID, dataLen int, ok bool) {
	m, found := f.lookup(lpa)
	if !found {
		return PPA{}, 0, 0, false
	}
	return m.ppa, m.stream, m.dataLen, true
}

// MappedPages returns the number of live logical pages.
func (f *FTL) MappedPages() int { return f.mapped }
