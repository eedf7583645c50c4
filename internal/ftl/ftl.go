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

// blockState is the per-block bookkeeping only the FTL keeps; the rest
// of a block's state is its storage.Unit.
type blockState struct {
	retired   bool
	resuscIdx int // next index into the owner's Resuscitate ladder
	// info is the block's chip BlockInfo as read when it was last
	// allocated (or adopted by Rebuild). While the block is in use its
	// Mode, PEC, Pages, RatedPEC and WearFrac stay what the chip says:
	// only Erase and SetMode move them, and the FTL issues neither to
	// an allocated block until it frees it. Reclamation reads them here
	// without a chip call. NextPage and Retired are not kept current,
	// and a free block's entry is stale: the free pool is read from the
	// chip, since a caller may wear free blocks through Chip().
	info flash.BlockInfo
}

// FTL is the translation layer over a single chip (or any Flash, e.g. a
// fault-injection interposer).
//
// Its storage.Reclaimer holds one Unit per block and the mapping
// tables: P2L indexed by block*ppb+page, sized once from the geometry
// (native mode has the most pages per block), and the private, paged
// L2P the FTL reaches through Lookup, SetMapping and ClearMapping. The
// logical space is not dense — the fs hands out LBAs sequentially and
// never reuses them, so the highest LBA ever written runs many times
// the physical page count on a long-lived device — so L2P keeps a pool
// entry per live page and a leaf per 1,024-LPA span holding one, and
// LPAs stop at storage.MaxLPA. Its Active slots hold the partially
// programmed block per (stream, lifetime bin); the HintNone column is
// the pre-hint behavior: unhinted writes see exactly one active block
// per stream, as they always did. A Unit's Condemned flag marks a block whose
// program status failed or that was quarantined: no further programs,
// GC drains it with priority, and it retires at erase. Its Pending count
// holds batch placements reserved (page cursor advanced, descriptor
// issued) but not yet settled, which reclamation — sweeps, victim
// choice, static wear leveling — must not touch: GC relocations would
// program at stale cursors and static WL would move pages that are not
// programmed yet (see batch.go).
type FTL struct {
	storage.Reclaimer

	chip    Flash
	streams []StreamPolicy
	obs     *obs.Recorder // nil disables tracing

	// bs is the batched-write scratch; every slice and map in it is
	// reused across WriteBatch calls so steady-state batches allocate
	// nothing.
	bs batchScratch
	// One-op scratch for Write: per-op calls are batches of one.
	w1op   [1]storage.BatchOp
	w1fate [1]storage.BatchFate
	// wenc is writeOne's encode buffer, apart from the Reclaimer's
	// relocation scratch because writeOne's program may run GC, which
	// relocates.
	wenc []byte

	blocks    []blockState
	freePool  []int // erased, unallocated block ids
	gcLow     int   // free-pool low-water mark triggering GC
	reserve   int   // blocks permanently held back (over-provisioning)
	logicalSz int   // logical payload bytes per page

	// FTL-only telemetry; the shared counters live in the Reclaimer.
	retiredCnt    int64
	resuscCnt     int64
	staticWLMoves int64  // static wear-leveling relocations
	allocsSinceWL int    // rate limiter for static WL checks
	writeSerial   uint64 // monotone OOB serial for rebuilds

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
		blocks:    make([]blockState, cfg.Chip.Blocks()),
		gcLow:     low,
		reserve:   reserve,
		logicalSz: geo.PageSize,
		origCfg:   cfg,
	}
	f.Init(storage.ReclaimConfig{
		Name: "ftl", Chip: cfg.Chip, Streams: cfg.Streams, Obs: cfg.Obs, Ops: unitOps{f},
		Units: cfg.Chip.Blocks(), Stride: geo.PagesPerBlock, BlocksPerUnit: 1,
		LowWater: low, Reserve: reserve,
	})
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

// allocBlock takes a block from the free pool for the stream and bin,
// honoring the stream's wear-leveling policy, sets the operating mode,
// and installs the block as the slot's active block.
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
		if info, err = f.chip.Info(b); err != nil {
			return -1, err
		}
		// A mode switch changes the block's page count and therefore
		// the device's usable capacity; notify when safe.
		f.NotifyCapacity()
	}
	f.blocks[b].info = info
	f.Units[b] = storage.Unit{Owner: id, Bin: h, InUse: true}
	f.Activate(b)
	return b, nil
}

// activeWritable returns the (stream, bin) slot's current active block
// if it still has room, rotating it out when full. Returns -1 when a new
// allocation is needed.
func (f *FTL) activeWritable(id StreamID, h storage.LifetimeHint) int {
	b := f.Active[storage.ActiveSlot(id, h)]
	if b < 0 {
		return -1
	}
	if f.Units[b].Programmed < f.blocks[b].info.Pages {
		return b
	}
	// Block full; it remains owned by the stream for GC accounting.
	f.Deactivate(b)
	return -1
}

// writableActive returns the (stream, bin) slot's active block with
// space for one more page, allocating or rotating blocks as needed.
func (f *FTL) writableActive(id StreamID, h storage.LifetimeHint) (int, error) {
	if b := f.activeWritable(id, h); b >= 0 {
		return b, nil
	}
	// Reclaim until the pool is healthy or GC stops making progress.
	for len(f.freePool) <= f.gcLow {
		prev := f.GCRuns
		f.RunGC(id)
		if f.GCRuns == prev {
			break
		}
	}
	// GC relocation may have installed a fresh active block for this
	// slot; reuse it rather than stranding it behind a new allocation.
	if b := f.activeWritable(id, h); b >= 0 {
		return b, nil
	}
	// Host allocations never drain the reserve: those blocks are GC's
	// relocation headroom (real SSD over-provisioning).
	if len(f.freePool) <= f.reserve {
		return -1, ErrNoSpace
	}
	// Every staticWLCheckEvery allocations, also check static wear
	// leveling here (cold blocks otherwise never re-enter rotation).
	// Only this allocation-path check is rate-limited: unitOps.Level
	// runs the same check after every GC pass, which is where almost
	// all checks happen under write pressure.
	f.allocsSinceWL++
	if f.allocsSinceWL >= staticWLCheckEvery {
		f.allocsSinceWL = 0
		f.maybeStaticWL(id)
		if b := f.activeWritable(id, h); b >= 0 {
			// Static WL may have installed an active block.
			return b, nil
		}
	}
	return f.allocBlock(id, h)
}

// Write stores data (length <= LogicalPageSize) at lpa under the given
// stream: a one-op WriteBatch. A nil data with dataLen > 0 performs an
// accounting-only write (no payload stored; error counts still
// modelled).
func (f *FTL) Write(lpa int64, data []byte, dataLen int, id StreamID) error {
	// The result is read before the deferred capacity callback runs, so
	// a callback that writes again cannot overwrite it.
	defer f.FlushCapacity()
	f.w1op[0] = storage.BatchOp{LPA: lpa, Data: data, DataLen: dataLen, Stream: id}
	f.writeBatch(f.w1op[:], f.w1fate[:], 1, 1)
	f.w1op[0] = storage.BatchOp{}
	return f.w1fate[0].Err
}

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
	f.HostWrites++
	if op.Hint != storage.HintNone {
		f.Hinted++
	}

	// Supersede the old location.
	if old, ok := f.Lookup(op.LPA); ok {
		f.invalidate(old)
	}
	f.SetMapping(op.LPA, storage.Mapping{Unit: b, Index: page, Stream: op.Stream, DataLen: dataLen, Digest: op.Digest, HasDigest: op.HasDigest, Hint: op.Hint})
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
		u := &f.Units[b]
		page := u.Programmed
		perr := f.chip.ProgramTagged(b, page, stored, storedLen, tag)
		if perr == nil {
			u.Programmed++
			u.Live++
			f.FlashPrograms++
			f.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: tag.LPA, Block: b, Page: page, Stream: int(id), Aux: int64(tag.DataLen)})
			return b, page, nil
		}
		if !errors.Is(perr, flash.ErrProgramFail) {
			return -1, -1, fmt.Errorf("ftl: program %d/%d: %w", b, page, perr)
		}
		f.sealFailedBlock(b)
	}
	return -1, -1, fmt.Errorf("ftl: %d consecutive program failures: %w", storage.MaxProgramAttempts, flash.ErrProgramFail)
}

// sealBlock condemns a block: it takes no further programs, GC drains
// it with priority, and it retires at erase time.
func (f *FTL) sealBlock(b int) {
	u := &f.Units[b]
	u.Condemned = true
	// Freeze the programmed-page count at the chip's cursor.
	if info, err := f.chip.Info(b); err == nil {
		u.Programmed = info.NextPage
	}
	f.Deactivate(b)
}

// sealFailedBlock seals a block after a program-status failure.
func (f *FTL) sealFailedBlock(b int) {
	f.sealBlock(b)
	f.ProgFailures++
}

// invalidate marks the page m points at stale and updates its block's
// accounting.
func (f *FTL) invalidate(m storage.Mapping) {
	if err := f.chip.MarkStale(m.Unit, m.Index); err == nil {
		u := &f.Units[m.Unit]
		u.Live--
		u.Stale++
	}
	f.P2L[f.PageIndex(m.Unit, m.Index)] = -1
}

// Trim drops the mapping for lpa (host discard / file delete).
func (f *FTL) Trim(lpa int64) error {
	m, ok := f.Lookup(lpa)
	if !ok {
		return ErrUnknownLPA
	}
	f.invalidate(m)
	f.ClearMapping(lpa)
	return nil
}
