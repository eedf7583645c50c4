package flash

import (
	"errors"
	"fmt"
	"sync"

	"sos/internal/sim"
)

// Chip-level errors. The FTL turns these into retirement and relocation
// decisions.
var (
	ErrBadAddress   = errors.New("flash: address out of range")
	ErrNotErased    = errors.New("flash: programming a page that is not erased")
	ErrOutOfOrder   = errors.New("flash: pages within a block must be programmed in order")
	ErrNotWritten   = errors.New("flash: reading an unwritten page")
	ErrRetired      = errors.New("flash: block is retired")
	ErrPageTooLarge = errors.New("flash: payload exceeds page size")
	ErrModeInUse    = errors.New("flash: mode change requires an erased block")
	// ErrProgramFail reports a program-status failure: the cell array
	// could not be charged to target levels. Real NAND signals this
	// once blocks wear past their limits; controllers respond by
	// marking the block bad. The page is left unwritten.
	ErrProgramFail = errors.New("flash: program operation failed")
	// ErrEraseFail reports an erase-status failure, the other hard
	// wear-out signal.
	ErrEraseFail = errors.New("flash: erase operation failed")
	// ErrReadFault reports that a read operation failed outright (no
	// data returned), as opposed to returning data with bit errors. The
	// simulated chip itself never emits it; the fault interposer
	// (internal/fault) wraps it to model transient interface faults and
	// dead regions, and the FTL/device retry ladders key off it with
	// errors.Is.
	ErrReadFault = errors.New("flash: read operation failed")
)

// DefaultPlanes is the plane count a zero ChipConfig.Planes selects.
// Four matches small mobile/UFS parts (2 planes × 2 dies); it is a
// fixed default rather than a tuning knob follower because the plane
// count shapes per-plane RNG streams — changing it changes simulated
// error arrivals, like changing the seed.
const DefaultPlanes = 4

// Geometry describes a chip's physical layout. PageSize is the data
// bytes per page at full density; Spare is the out-of-band area per page
// where controllers keep ECC parity and metadata (so protection strength
// does not change logical capacity). A block operated in a pseudo-mode
// exposes proportionally fewer pages (the cells hold fewer bits), not
// smaller pages.
type Geometry struct {
	PageSize      int // data bytes per page
	Spare         int // out-of-band bytes per page (ECC parity space)
	PagesPerBlock int // pages per erase block at native density
	Blocks        int // erase blocks on the chip
}

// Validate checks the geometry for sanity.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 || g.PageSize%8 != 0 {
		return fmt.Errorf("flash: page size %d must be positive and 8-byte aligned", g.PageSize)
	}
	if g.Spare < 0 {
		return fmt.Errorf("flash: negative spare area %d", g.Spare)
	}
	if g.PagesPerBlock <= 0 {
		return fmt.Errorf("flash: pages per block %d", g.PagesPerBlock)
	}
	if g.Blocks <= 0 {
		return fmt.Errorf("flash: block count %d", g.Blocks)
	}
	return nil
}

// RawPageBytes returns the total programmable bytes per page
// (data + spare).
func (g Geometry) RawPageBytes() int { return g.PageSize + g.Spare }

// BytesNative returns the chip capacity at native density.
func (g Geometry) BytesNative() int64 {
	return int64(g.PageSize) * int64(g.PagesPerBlock) * int64(g.Blocks)
}

// PageTag is controller metadata kept in a page's out-of-band area:
// enough for an FTL to rebuild its mapping tables after power loss by
// scanning the chip. Real controllers protect OOB metadata with its own
// dedicated ECC, so tags are modelled as error-free.
type PageTag struct {
	// LPA is the logical page address stored here.
	LPA int64
	// Stream is the owning stream id.
	Stream uint8
	// DataLen is the logical payload length.
	DataLen int32
	// Serial is a monotonically increasing write sequence number; when
	// two physical pages claim the same LPA, the higher serial wins.
	Serial uint64
	// Digest is the integrity digest of the page's original logical
	// payload (FNV-1a 64, computed host-side at write time). Relocation
	// copies it verbatim — it always describes the bytes the host wrote,
	// not whatever the medium has decayed them into — so a clean read
	// whose payload no longer matches Digest is exactly a silent
	// corruption. HasDigest distinguishes "digest is zero" from "no
	// digest recorded" (accounting pages carry none).
	Digest    uint64
	HasDigest bool
	// Hint is the predicted-lifetime bin the host attached to the write
	// (storage.LifetimeHint values; 0 = unhinted). Persisting it in OOB
	// makes placement crash-safe: rebuild re-adopts per-(stream, bin)
	// active blocks and dead-data-aware GC re-derives its skip decisions
	// from the same hints the pre-crash instance saw.
	Hint uint8
}

// PageState tracks a written page's history for error modelling.
type PageState uint8

// Page states.
const (
	PageErased PageState = iota
	PageWritten
	PageStale // superseded by the FTL; contents irrelevant
)

// block is the per-erase-block state.
type block struct {
	mode      Mode
	pec       int     // program/erase cycles endured
	endScale  float64 // manufacturing endurance variance (1.0 nominal)
	ratedEnd  float64 // cached RatedPEC*endScale: wear-out guard threshold
	wear      wear    // wearOf(mode, pec, endScale), refreshed wherever pec or mode changes
	retired   bool
	nextPage  int // next programmable page index (in-order constraint)
	pagesAvab int // pages available in current mode

	state     []PageState
	data      [][]byte   // nil for accounting-only pages
	dataLen   []int32    // payload length (also for accounting-only)
	writtenAt []sim.Time // program time per page
	reads     []uint32   // reads since program, per page
	flips     []uint32   // cumulative bits already flipped in stored data
	injected  []float64  // cumulative flip expectation already drawn
	tags      []PageTag  // OOB controller metadata
	tagged    []bool     // whether the page carries a tag
}

// plane is one independently lockable unit of the die. Every resource
// an operation touches — RNG, buffer pool, read ring, telemetry — is
// plane-local, so operations on different planes share no mutable state
// and run concurrently without coordination. Blocks stripe across
// planes by index (block b lives on plane b % planes).
type plane struct {
	mu sync.Mutex

	// rng drives error injection for blocks on this plane. Per-plane
	// streams are seeded from the chip seed via SplitSeeds before any
	// concurrency exists, so draws depend only on the per-plane op
	// order — which the batched datapath keeps canonical — never on
	// goroutine scheduling.
	rng *sim.RNG

	// bufPool recycles page payload buffers: Program takes from it,
	// Erase returns the wiped block's buffers to it. Once warm, the
	// steady-state program path allocates nothing.
	bufPool [][]byte
	// readRing is a small rotating set of buffers Read copies payloads
	// into, so steady-state reads allocate nothing. A returned
	// ReadResult.Data stays valid only until len(readRing) subsequent
	// payload reads on the same plane; callers that retain data longer
	// must copy it.
	readRing [4][]byte
	readCur  int

	// Telemetry (summed across planes by Stats).
	programs   int64
	readsT     int64
	erases     int64
	bitFlips   int64
	progFails  int64
	eraseFails int64
}

// Chip is a simulated NAND die split into independently lockable
// planes. Operations on blocks of different planes are safe to run
// concurrently; operations on the same plane serialize on its lock, as
// a real plane's single program/read circuitry would. The simulation
// clock is read but never advanced by chip operations, so callers may
// only Advance it while no chip operation is in flight.
type Chip struct {
	geo   Geometry
	phys  Tech
	model ErrorModel
	clock *sim.Clock

	blocks []block
	planes []plane
}

// ChipConfig configures a simulated chip.
type ChipConfig struct {
	Geometry Geometry
	Tech     Tech       // physical cell technology
	Model    ErrorModel // zero value => DefaultErrorModel
	Clock    *sim.Clock // required
	Seed     uint64     // RNG seed for error injection and variance
	// EnduranceSigma is the lognormal sigma of block-to-block endurance
	// variance; 0 disables variance.
	EnduranceSigma float64
	// Planes is the number of independently lockable planes
	// (0 => DefaultPlanes). The plane count reshapes per-plane RNG
	// streams, so like Seed it is part of the simulation's identity.
	Planes int
}

// NewChip builds a chip with every block erased in native mode.
func NewChip(cfg ChipConfig) (*Chip, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Tech.Valid() {
		return nil, fmt.Errorf("flash: invalid tech %d", int(cfg.Tech))
	}
	if cfg.Clock == nil {
		return nil, errors.New("flash: chip requires a clock")
	}
	model := cfg.Model
	if model == (ErrorModel{}) {
		model = DefaultErrorModel()
	}
	planes := cfg.Planes
	if planes == 0 {
		planes = DefaultPlanes
	}
	if planes < 1 {
		return nil, fmt.Errorf("flash: plane count %d out of range", planes)
	}
	// A plane without blocks would just idle; clamp so tiny test
	// geometries still build.
	if planes > cfg.Geometry.Blocks {
		planes = cfg.Geometry.Blocks
	}
	c := &Chip{
		geo:    cfg.Geometry,
		phys:   cfg.Tech,
		model:  model,
		clock:  cfg.Clock,
		blocks: make([]block, cfg.Geometry.Blocks),
		planes: make([]plane, planes),
	}
	// Plane RNG streams split from the chip seed before any concurrency
	// exists (the SplitSeeds dispatch-side pattern).
	for i, seed := range sim.NewRNG(cfg.Seed).SplitSeeds(planes) {
		c.planes[i].rng = sim.NewRNG(seed)
	}
	varRNG := sim.NewRNG(cfg.Seed + 0x5eed)
	for i := range c.blocks {
		scale := 1.0
		if cfg.EnduranceSigma > 0 {
			scale = lognormal(varRNG, cfg.EnduranceSigma)
		}
		c.blocks[i] = newBlock(NativeMode(cfg.Tech), cfg.Geometry.PagesPerBlock, scale)
	}
	return c, nil
}

func lognormal(rng *sim.RNG, sigma float64) float64 {
	v := rng.NormFloat64() * sigma
	// exp(v) with mean-preserving correction is overkill; clamp tails.
	scale := 1.0
	switch {
	case v > 1:
		scale = 2.7
	case v < -1:
		scale = 0.37
	default:
		scale = 1 + v + v*v/2 // cheap exp approximation near 1
	}
	return scale
}

func newBlock(mode Mode, nativePages int, endScale float64) block {
	pages := nativePages * mode.OpBits / mode.Phys.BitsPerCell()
	if pages < 1 {
		pages = 1
	}
	es := endScale
	if es <= 0 {
		es = 1
	}
	return block{
		mode:      mode,
		endScale:  endScale,
		ratedEnd:  float64(mode.RatedPEC()) * es,
		wear:      wearOf(mode, 0, endScale),
		pagesAvab: pages,
		state:     make([]PageState, pages),
		data:      make([][]byte, pages),
		dataLen:   make([]int32, pages),
		writtenAt: make([]sim.Time, pages),
		reads:     make([]uint32, pages),
		flips:     make([]uint32, pages),
		injected:  make([]float64, pages),
		tags:      make([]PageTag, pages),
		tagged:    make([]bool, pages),
	}
}

// getPageBuf returns a payload buffer of length n, reusing a pooled one
// when available. Buffers are allocated at full raw-page capacity so any
// pooled buffer fits any payload (Program bounds n by RawPageBytes
// first). The allocation lives here, not in Program, so the program fast
// path itself stays make-free once the pool is warm.
func (c *Chip) getPageBuf(pl *plane, n int) []byte {
	if last := len(pl.bufPool) - 1; last >= 0 {
		buf := pl.bufPool[last]
		pl.bufPool[last] = nil
		pl.bufPool = pl.bufPool[:last]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	m := c.geo.RawPageBytes()
	if m < n {
		m = n
	}
	return make([]byte, n, m)
}

// putPageBuf returns a payload buffer to the plane's pool.
func (c *Chip) putPageBuf(pl *plane, buf []byte) {
	if buf != nil {
		pl.bufPool = append(pl.bufPool, buf)
	}
}

// readBuf returns the plane's next read-ring buffer resized to n,
// growing the slot on first use (or if a larger payload ever appears).
func (c *Chip) readBuf(pl *plane, n int) []byte {
	i := pl.readCur
	pl.readCur = (i + 1) % len(pl.readRing)
	if cap(pl.readRing[i]) < n {
		m := c.geo.RawPageBytes()
		if m < n {
			m = n
		}
		pl.readRing[i] = make([]byte, m)
	}
	return pl.readRing[i][:n]
}

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// Tech returns the physical cell technology.
func (c *Chip) Tech() Tech { return c.phys }

// Blocks returns the number of erase blocks.
func (c *Chip) Blocks() int { return len(c.blocks) }

// Planes returns the number of independently lockable planes.
func (c *Chip) Planes() int { return len(c.planes) }

// PlaneOf returns the plane that owns block b. Blocks stripe across
// planes by index, so consecutively allocated blocks land on different
// planes and a multi-block write burst spreads naturally.
func (c *Chip) PlaneOf(b int) int { return b % len(c.planes) }

// planeFor returns the plane owning block b; b must be in range.
func (c *Chip) planeFor(b int) *plane { return &c.planes[b%len(c.planes)] }

// PagesIn returns the number of pages block b exposes in its current
// operating mode.
func (c *Chip) PagesIn(b int) (int, error) {
	if b < 0 || b >= len(c.blocks) {
		return 0, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	n := c.blocks[b].pagesAvab
	pl.mu.Unlock()
	return n, nil
}

// checkAddr validates a block/page address. Callers must hold the
// owning plane's lock (pagesAvab can change under SetMode).
func (c *Chip) checkAddr(b, page int) (*block, error) {
	if b < 0 || b >= len(c.blocks) {
		return nil, ErrBadAddress
	}
	blk := &c.blocks[b]
	if page < 0 || page >= blk.pagesAvab {
		return nil, ErrBadAddress
	}
	return blk, nil
}

// Program writes data to (b, page). Pages must be programmed in order
// within an erased block; data may be nil for an accounting-only page
// (length dataLen), which models bulk traffic without storing payload
// bytes. Programming bumps nothing on wear — wear accrues at erase.
func (c *Chip) Program(b, page int, data []byte, dataLen int) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	err := c.programLocked(pl, b, page, data, dataLen, false)
	pl.mu.Unlock()
	return err
}

// programLocked stores one page. own marks data as an already-pooled
// buffer the chip may keep without copying (see ProgramOp.Own); the
// caller reclaims it on error.
func (c *Chip) programLocked(pl *plane, b, page int, data []byte, dataLen int, own bool) error {
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return err
	}
	if blk.retired {
		return ErrRetired
	}
	if blk.state[page] != PageErased {
		return ErrNotErased
	}
	if page != blk.nextPage {
		return ErrOutOfOrder
	}
	// Hard wear-out: programs past the endurance limit start failing
	// their status checks. The page stays erased. The cached threshold
	// keeps FailureProb (mode switches, float math) off the hot path for
	// the overwhelmingly common below-rated case; at or below ratedEnd
	// the probability is exactly 0, so no RNG draw is skipped.
	if float64(blk.pec) > blk.ratedEnd {
		if p := c.model.FailureProb(blk.mode, blk.pec, blk.endScale); p > 0 && pl.rng.Bool(p) {
			pl.progFails++
			return ErrProgramFail
		}
	}
	if data != nil {
		dataLen = len(data)
	}
	if dataLen > c.geo.RawPageBytes() {
		return ErrPageTooLarge
	}
	if dataLen < 0 {
		return fmt.Errorf("flash: negative payload length %d", dataLen)
	}
	if data == nil {
		blk.data[page] = nil
	} else if own {
		blk.data[page] = data
	} else {
		stored := c.getPageBuf(pl, len(data))
		copy(stored, data)
		blk.data[page] = stored
	}
	blk.dataLen[page] = int32(dataLen)
	blk.state[page] = PageWritten
	blk.writtenAt[page] = c.clock.Now()
	blk.reads[page] = 0
	blk.flips[page] = 0
	blk.injected[page] = 0
	blk.tagged[page] = false
	blk.nextPage = page + 1
	pl.programs++
	return nil
}

// ProgramTagged programs a page and records OOB controller metadata for
// later table rebuilds.
func (c *Chip) ProgramTagged(b, page int, data []byte, dataLen int, tag PageTag) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err := c.programLocked(pl, b, page, data, dataLen, false); err != nil {
		return err
	}
	blk := &c.blocks[b]
	blk.tags[page] = tag
	blk.tagged[page] = true
	return nil
}

// ProgramOp is one entry of a multi-page program run. Outcomes land in
// Err per op; a run call never fails as a whole. Own marks Data as a
// buffer obtained from TakeProgramBufs: the chip stores it directly
// instead of copying into a fresh pool buffer — the caller must not
// touch it afterwards. If an owned program fails, the chip reclaims the
// buffer into its pool.
type ProgramOp struct {
	Block, Page int
	Data        []byte
	DataLen     int
	Tag         PageTag
	Own         bool
	Err         error
}

// TakeProgramBufs hands out len(sizes) payload buffers from plane p's
// pool under one lock acquisition; bufs[i] gets length sizes[i] (full
// raw-page capacity underneath, like every pooled buffer). Intended for
// encoding payloads in place ahead of an owned program run, eliminating
// the per-page copy Program would otherwise do.
func (c *Chip) TakeProgramBufs(p int, sizes []int, bufs [][]byte) {
	pl := &c.planes[p]
	pl.mu.Lock()
	for i, n := range sizes {
		bufs[i] = c.getPageBuf(pl, n)
	}
	pl.mu.Unlock()
}

// ReturnProgramBufs gives taken-but-unused buffers back to plane p's
// pool (an owned program that never reached the chip).
func (c *Chip) ReturnProgramBufs(p int, bufs [][]byte) {
	pl := &c.planes[p]
	pl.mu.Lock()
	for _, b := range bufs {
		c.putPageBuf(pl, b)
	}
	pl.mu.Unlock()
}

// ProgramRunTagged executes a run of tagged programs that all target the
// plane owning ops[0].Block, under a single plane-lock acquisition —
// per-page locking is measurable overhead when a batch maps dozens of
// programs onto the same plane. Ops are executed blindly in order; an op
// addressing a different plane gets ErrBadAddress without executing.
//
// Equivalence with per-op ProgramTagged calls is exact, including the
// plane RNG stream: after a program-status failure the block's page
// cursor stalls, so later ops on it return ErrOutOfOrder before any
// failure-probability draw — zero draws, just as if they were skipped.
func (c *Chip) ProgramRunTagged(ops []ProgramOp) {
	if len(ops) == 0 {
		return
	}
	b0 := ops[0].Block
	if b0 < 0 || b0 >= len(c.blocks) {
		for i := range ops {
			ops[i].Err = ErrBadAddress
		}
		return
	}
	pl := c.planeFor(b0)
	pl.mu.Lock()
	for i := range ops {
		op := &ops[i]
		if op.Block < 0 || op.Block >= len(c.blocks) || c.planeFor(op.Block) != pl {
			op.Err = ErrBadAddress
		} else {
			op.Err = c.programLocked(pl, op.Block, op.Page, op.Data, op.DataLen, op.Own)
		}
		if op.Err == nil {
			blk := &c.blocks[op.Block]
			blk.tags[op.Page] = op.Tag
			blk.tagged[op.Page] = true
		} else if op.Own && op.Data != nil {
			// The chip committed to owning this buffer; a failed program
			// reclaims it so the pool doesn't leak.
			c.putPageBuf(pl, op.Data)
		}
	}
	pl.mu.Unlock()
}

// Tag returns the OOB metadata of a written page, if any.
func (c *Chip) Tag(b, page int) (PageTag, bool, error) {
	if b < 0 || b >= len(c.blocks) {
		return PageTag{}, false, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return PageTag{}, false, err
	}
	if blk.state[page] != PageWritten && blk.state[page] != PageStale {
		return PageTag{}, false, ErrNotWritten
	}
	return blk.tags[page], blk.tagged[page], nil
}

// ReadResult reports the outcome of a page read.
type ReadResult struct {
	// Data is the payload with accumulated bit errors applied, or nil
	// for accounting-only pages.
	Data []byte
	// DataLen is the payload length (valid for accounting-only pages).
	DataLen int
	// FlippedTotal is the cumulative number of raw bit errors now
	// present in the page.
	FlippedTotal int
	// FlippedNew is how many errors this read added (disturb et al.).
	FlippedNew int
	// RBER is the modelled raw bit error rate at read time.
	RBER float64
}

// Read returns the page contents with the raw bit errors the medium has
// accumulated. Error injection is cumulative and monotone: once a bit
// flips it stays flipped until the block is erased (retention and wear
// failures are persistent charge loss, not transient noise).
//
// The returned Data aliases a plane-owned ring buffer that is reused
// after a few subsequent payload reads on the same plane (see
// readRing); callers that retain the payload beyond that must copy it.
func (c *Chip) Read(b, page int) (ReadResult, error) {
	if b < 0 || b >= len(c.blocks) {
		return ReadResult{}, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return c.readLocked(pl, b, page, nil)
}

// readLocked reads one page under the plane lock. dst, when non-nil,
// receives the payload instead of a read-ring slot; its capacity must
// cover the page's stored length (any buffer from TakeProgramBufs
// does).
func (c *Chip) readLocked(pl *plane, b, page int, dst []byte) (ReadResult, error) {
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return ReadResult{}, err
	}
	if blk.state[page] != PageWritten && blk.state[page] != PageStale {
		return ReadResult{}, ErrNotWritten
	}
	blk.reads[page]++
	pl.readsT++

	retention := c.clock.Now() - blk.writtenAt[page]
	rber := c.model.pageRBER(blk.wear, retention, int(blk.reads[page]))
	nbits := int(blk.dataLen[page]) * 8
	// Errors are persistent: the cumulative expected flip count for this
	// page is nbits*rber, which only grows (retention, disturb, wear at
	// erase all increase rber). We draw the *increment* over what has
	// already been injected, tracking drawn expectation — not drawn
	// flips — so repeated reads stay unbiased.
	target := float64(nbits) * rber
	newFlips := 0
	if delta := target - blk.injected[page]; delta > 0 {
		newFlips = pl.rng.Poisson(delta)
		if max := nbits - int(blk.flips[page]); newFlips > max {
			newFlips = max
		}
		blk.injected[page] = target
	}
	if newFlips > 0 {
		if blk.data[page] != nil {
			flipBits(pl.rng, blk.data[page], newFlips)
		}
		blk.flips[page] += uint32(newFlips)
		pl.bitFlips += int64(newFlips)
	}

	res := ReadResult{
		DataLen:      int(blk.dataLen[page]),
		FlippedTotal: int(blk.flips[page]),
		FlippedNew:   newFlips,
		RBER:         rber,
	}
	if blk.data[page] != nil {
		out := dst
		if out != nil {
			out = out[:len(blk.data[page])]
		} else {
			out = c.readBuf(pl, len(blk.data[page]))
		}
		copy(out, blk.data[page])
		res.Data = out
	}
	return res, nil
}

// ReadOp is one entry of a multi-page read run. Outcomes land in Res
// and Err per op; a run call never fails as a whole. Dst, when
// non-nil, receives the payload (capacity must cover the page's stored
// length — buffers from TakeProgramBufs always do); a nil Dst falls
// back to the plane's read ring, exactly like Read.
type ReadOp struct {
	Block, Page int
	Dst         []byte
	Res         ReadResult
	Err         error
}

// ReadRunInto executes a run of reads that all target the plane owning
// ops[0].Block, under a single plane-lock acquisition — the read-side
// mirror of ProgramRunTagged. Ops execute blindly in order; an op
// addressing a different plane gets ErrBadAddress without executing.
//
// Equivalence with per-op Read calls in the same order is exact,
// including the plane RNG stream: error injection draws (Poisson
// increment, bit positions) happen per op in run order, and read
// telemetry (disturb counters, plane read totals) advances identically.
func (c *Chip) ReadRunInto(ops []ReadOp) {
	if len(ops) == 0 {
		return
	}
	b0 := ops[0].Block
	if b0 < 0 || b0 >= len(c.blocks) {
		for i := range ops {
			ops[i].Err = ErrBadAddress
		}
		return
	}
	pl := c.planeFor(b0)
	pl.mu.Lock()
	for i := range ops {
		op := &ops[i]
		if op.Block < 0 || op.Block >= len(c.blocks) || c.planeFor(op.Block) != pl {
			op.Err = ErrBadAddress
			continue
		}
		op.Res, op.Err = c.readLocked(pl, op.Block, op.Page, op.Dst)
	}
	pl.mu.Unlock()
}

// flipBits flips n random bit positions in data (repeats allowed across
// calls; within a call positions are drawn independently, which at flash
// error rates almost never collides).
func flipBits(rng *sim.RNG, data []byte, n int) {
	nbits := len(data) * 8
	if nbits == 0 {
		return
	}
	for i := 0; i < n; i++ {
		pos := rng.Intn(nbits)
		data[pos/8] ^= 1 << uint(pos%8)
	}
}

// MarkStale marks a page's contents as superseded (the FTL moved the
// logical page elsewhere). The medium still holds the bits; the state is
// bookkeeping for GC.
func (c *Chip) MarkStale(b, page int) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return err
	}
	if blk.state[page] != PageWritten {
		return ErrNotWritten
	}
	blk.state[page] = PageStale
	return nil
}

// Erase wipes block b, incrementing its wear. Erasing a retired block is
// an error.
func (c *Chip) Erase(b int) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk := &c.blocks[b]
	if blk.retired {
		return ErrRetired
	}
	if float64(blk.pec) > blk.ratedEnd {
		if p := c.model.FailureProb(blk.mode, blk.pec, blk.endScale); p > 0 && pl.rng.Bool(p) {
			pl.eraseFails++
			return ErrEraseFail
		}
	}
	blk.pec++
	blk.wear = wearOf(blk.mode, blk.pec, blk.endScale)
	blk.nextPage = 0
	for i := 0; i < blk.pagesAvab; i++ {
		blk.state[i] = PageErased
		c.putPageBuf(pl, blk.data[i])
		blk.data[i] = nil
		blk.dataLen[i] = 0
		blk.reads[i] = 0
		blk.flips[i] = 0
		blk.injected[i] = 0
		blk.tagged[i] = false
	}
	pl.erases++
	return nil
}

// SetMode changes the operating mode of a fully-erased block: the
// resuscitation path (worn PLC reborn as pseudo-TLC) and the SYS
// partition's pseudo-QLC provisioning. The block's wear carries over.
func (c *Chip) SetMode(b int, m Mode) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	if !m.Valid() || m.Phys != c.phys {
		return fmt.Errorf("flash: mode %v invalid for %v chip", m, c.phys)
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk := &c.blocks[b]
	if blk.retired {
		return ErrRetired
	}
	for i := 0; i < blk.pagesAvab; i++ {
		if blk.state[i] != PageErased {
			return ErrModeInUse
		}
	}
	nb := newBlock(m, c.geo.PagesPerBlock, blk.endScale)
	nb.pec = blk.pec
	nb.wear = wearOf(m, nb.pec, nb.endScale)
	c.blocks[b] = nb
	return nil
}

// Retire permanently removes block b from service.
func (c *Chip) Retire(b int) error {
	if b < 0 || b >= len(c.blocks) {
		return ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	c.blocks[b].retired = true
	pl.mu.Unlock()
	return nil
}

// BlockInfo is a telemetry snapshot of one block.
type BlockInfo struct {
	Mode     Mode
	PEC      int
	Retired  bool
	Pages    int
	NextPage int
	EndScale float64
	RatedPEC int     // rated endurance in the current mode (nominal)
	WearFrac float64 // PEC / (rated * endScale), an endScale <= 0 counting as 1
}

// Info returns the telemetry snapshot for block b: a copy of its fields
// under the plane lock, with the wear fraction the RBER model cached.
func (c *Chip) Info(b int) (BlockInfo, error) {
	if b < 0 || b >= len(c.blocks) {
		return BlockInfo{}, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk := &c.blocks[b]
	return BlockInfo{
		Mode:     blk.mode,
		PEC:      blk.pec,
		Retired:  blk.retired,
		Pages:    blk.pagesAvab,
		NextPage: blk.nextPage,
		EndScale: blk.endScale,
		RatedPEC: blk.mode.RatedPEC(),
		WearFrac: blk.wear.frac,
	}, nil
}

// PageRBER returns the modelled RBER a read of (b, page) would see now,
// without performing the read (no disturb added). Used by the scrubber.
func (c *Chip) PageRBER(b, page int) (float64, error) {
	if b < 0 || b >= len(c.blocks) {
		return 0, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return 0, err
	}
	if blk.state[page] != PageWritten && blk.state[page] != PageStale {
		return 0, ErrNotWritten
	}
	retention := c.clock.Now() - blk.writtenAt[page]
	return c.model.pageRBER(blk.wear, retention, int(blk.reads[page])), nil
}

// StateOf returns the state of (b, page).
func (c *Chip) StateOf(b, page int) (PageState, error) {
	if b < 0 || b >= len(c.blocks) {
		return 0, ErrBadAddress
	}
	pl := c.planeFor(b)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	blk, err := c.checkAddr(b, page)
	if err != nil {
		return 0, err
	}
	return blk.state[page], nil
}

// Stats is chip-level telemetry.
type Stats struct {
	Programs   int64
	Reads      int64
	Erases     int64
	BitFlips   int64
	ProgFails  int64
	EraseFails int64
}

// Stats returns cumulative operation counts, summed across planes.
func (c *Chip) Stats() Stats {
	var s Stats
	for i := range c.planes {
		pl := &c.planes[i]
		pl.mu.Lock()
		s.Programs += pl.programs
		s.Reads += pl.readsT
		s.Erases += pl.erases
		s.BitFlips += pl.bitFlips
		s.ProgFails += pl.progFails
		s.EraseFails += pl.eraseFails
		pl.mu.Unlock()
	}
	return s
}

// Model returns the chip's error model.
func (c *Chip) Model() ErrorModel { return c.model }

// Clock returns the chip's simulation clock.
func (c *Chip) Clock() *sim.Clock { return c.clock }
