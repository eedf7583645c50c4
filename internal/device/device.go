package device

import (
	"errors"
	"fmt"

	"sos/internal/ecc"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/ftl"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/storage"
	"sos/internal/zns"
)

// Class is the host's data classification hint attached to each write —
// the thin co-design interface of Figure 2. The device maps classes to
// streams.
type Class int

// Data classes.
const (
	// ClassSys marks critical data: OS files, app metadata, documents,
	// personally significant media. Stored conservatively.
	ClassSys Class = iota
	// ClassSpare marks low-priority, read-dominant, error-tolerant
	// data. Stored approximately on the densest blocks.
	ClassSpare
)

func (c Class) String() string {
	switch c {
	case ClassSys:
		return "sys"
	case ClassSpare:
		return "spare"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ErrBadClass reports an unknown classification hint.
var ErrBadClass = errors.New("device: unknown data class")

// Config builds a device.
type Config struct {
	// Geometry of the underlying chip. Zero value selects a small
	// default suitable for tests.
	Geometry flash.Geometry
	// Tech is the physical cell technology (default PLC for SOS
	// devices; baselines override).
	Tech flash.Tech
	// Backend selects the translation layer: the device-side
	// multi-stream FTL (default) or the host-side FTL over a zoned
	// namespace. Both present the same storage.Backend contract, so the
	// rest of the stack is unaffected by the choice (§4.3's
	// streams-or-zones co-design point).
	Backend storage.Kind
	// BlocksPerZone groups erase blocks into zones for the zns backend
	// (default 4; ignored by ftl).
	BlocksPerZone int
	// Streams define the partitions. Use SOSStreams / BaselineStreams
	// helpers. Stream index must correspond to Class values for the
	// classes the device accepts.
	Streams []ftl.StreamPolicy
	// Latency is the timing model (zero value => default profile).
	Latency *LatencyProfile
	// Clock, if nil, a fresh clock is created.
	Clock *sim.Clock
	// Seed for deterministic error injection.
	Seed uint64
	// EnduranceSigma is block-to-block endurance variance.
	EnduranceSigma float64
	// OverProvisionPct / GCLowWater pass through to the FTL.
	OverProvisionPct int
	GCLowWater       int
	// Queues is the submission-queue count batched writes are dealt
	// across (default 1). Planes is the chip's independently lockable
	// plane count (default flash.DefaultPlanes). Workers bounds the
	// goroutines a batch's parallel phases may use (default 1, fully
	// serial). All three change only wall-clock time — simulated results
	// are identical at every setting.
	Queues  int
	Planes  int
	Workers int
	// ReadWorkers bounds the goroutines the batched read path may use
	// (default 1, fully serial). Like Queues/Planes/Workers it changes
	// only wall-clock time — simulated results are identical at every
	// setting.
	ReadWorkers int
	// Fault, when non-nil, interposes a deterministic fault injector
	// between the FTL and the chip (see internal/fault). Nil keeps the
	// stack byte-identical to an uninstrumented device.
	Fault *fault.Plan
	// Obs, when non-nil, receives trace events and latency/size
	// histogram observations from the device and its FTL. A nil
	// recorder costs one pointer compare per hook.
	Obs *obs.Recorder
}

// SOSStreams returns the paper's split pseudo-QLC / PLC stream layout
// over PLC silicon: stream 0 (SYS) on pseudo-QLC with Reed-Solomon and
// wear leveling; stream 1 (SPARE) on native PLC with detect-only
// integrity, no wear leveling, and a pseudo-TLC resuscitation ladder.
func SOSStreams() []ftl.StreamPolicy {
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		panic(err)
	}
	return []ftl.StreamPolicy{
		{
			Name:         "sys",
			Mode:         pQLC,
			Scheme:       ecc.MustRSScheme(223, 32),
			WearLeveling: true,
		},
		{
			Name:        "spare",
			Mode:        flash.NativeMode(flash.PLC),
			Scheme:      ecc.DetectOnly{},
			Resuscitate: []int{3}, // worn PLC reborn as pseudo-TLC
			// SPARE runs its blocks ~15% past the conservative rating
			// before the resuscitation ladder engages: degradation is
			// the product, not a failure (§4.2-§4.3).
			WearRetireFrac: 1.15,
		},
	}
}

// BaselineStreams returns the conventional single-partition layout used
// by the paper's implicit baselines: everything on native cells of the
// given technology, strong ECC, wear leveling on. Both classes map to
// the single stream.
func BaselineStreams(tech flash.Tech) []ftl.StreamPolicy {
	return []ftl.StreamPolicy{
		{
			Name:         "all",
			Mode:         flash.NativeMode(tech),
			Scheme:       ecc.MustRSScheme(223, 32),
			WearLeveling: true,
		},
	}
}

// Device is a simulated personal storage device.
type Device struct {
	chip    *flash.Chip
	medium  storage.Flash   // what the backend sees: the chip, or a fault injector over it
	inj     *fault.Injector // nil without a fault plan
	backend storage.Backend
	clock   *sim.Clock
	latency LatencyProfile
	obs     *obs.Recorder // nil disables telemetry

	// busy accumulates modelled device time (not wall time).
	busy sim.Time

	// Multi-queue batched submission state: queue/worker counts, the
	// virtual-time scheduler (one lane per chip plane), the global
	// submission sequence, and reusable batch scratch.
	queues      int
	workers     int
	readWorkers int
	vt          *sim.VTScheduler
	batchSeq    uint64
	bops        []storage.BatchOp
	bfates      []storage.BatchFate
	bcomps      []sim.Completion
	brops       []storage.BatchReadOp
	brfates     []storage.BatchReadFate
	// frames holds the one-op scratch of Write and Read, one frame per
	// nesting level: the capacity callback can re-enter the device
	// mid-operation, and a nested call must not share its caller's
	// scratch. depth is the number of frames in use.
	frames []*opFrame
	depth  int

	readCount  int64
	writeCount int64

	// Read-ladder and recovery telemetry.
	readRetries   int64
	salvagedReads int64
	hardFaults    []int // consecutive-hard-fault count, indexed by block
	hardFaultCnt  int64
	quarantined   int64
	rebuilds      int64

	// OnCapacityChange fires with the new advertised capacity in bytes
	// whenever retirement/resuscitation shrinks the device.
	OnCapacityChange func(bytes int64)
}

// DefaultGeometry is a small-but-structured chip for tests and examples:
// 4 KiB pages + 1 KiB spare, 64 pages/block, 256 blocks = 64 MiB native.
func DefaultGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 4096, Spare: 1024, PagesPerBlock: 64, Blocks: 256}
}

// New builds a device.
func New(cfg Config) (*Device, error) {
	if cfg.Geometry == (flash.Geometry{}) {
		cfg.Geometry = DefaultGeometry()
	}
	if cfg.Tech == 0 {
		cfg.Tech = flash.PLC
	}
	if len(cfg.Streams) == 0 {
		return nil, errors.New("device: no streams configured")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = &sim.Clock{}
	}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry:       cfg.Geometry,
		Tech:           cfg.Tech,
		Clock:          clock,
		Seed:           cfg.Seed,
		EnduranceSigma: cfg.EnduranceSigma,
		Planes:         cfg.Planes,
	})
	if err != nil {
		return nil, err
	}
	var medium storage.Flash = chip
	var inj *fault.Injector
	if cfg.Fault != nil {
		inj = fault.New(chip, *cfg.Fault)
		medium = inj
	}
	be, err := NewBackend(BackendConfig{
		Kind:             cfg.Backend,
		Medium:           medium,
		Streams:          cfg.Streams,
		OverProvisionPct: cfg.OverProvisionPct,
		GCLowWater:       cfg.GCLowWater,
		BlocksPerZone:    cfg.BlocksPerZone,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	lat := DefaultLatencyProfile()
	if cfg.Latency != nil {
		lat = *cfg.Latency
	}
	queues := cfg.Queues
	if queues < 1 {
		queues = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	readWorkers := cfg.ReadWorkers
	if readWorkers < 1 {
		readWorkers = 1
	}
	d := &Device{
		chip: chip, medium: medium, inj: inj,
		backend: be, clock: clock, latency: lat,
		obs:         cfg.Obs,
		queues:      queues,
		workers:     workers,
		readWorkers: readWorkers,
		vt:          sim.NewVTScheduler(chip.Planes()),
		hardFaults:  make([]int, chip.Blocks()),
	}
	d.wireCapacity()
	return d, nil
}

// BackendConfig parameterizes NewBackend: the common shape both
// translation layers are built from.
type BackendConfig struct {
	// Kind selects ftl (device-side streams) or zns (host-side zones).
	Kind storage.Kind
	// Medium is the chip or a fault interposer over it.
	Medium  storage.Flash
	Streams []storage.StreamPolicy
	// OverProvisionPct / GCLowWater tune reclamation headroom; the zns
	// backend interprets them at zone granularity.
	OverProvisionPct int
	GCLowWater       int
	// BlocksPerZone applies to zns only (default 4).
	BlocksPerZone int
	Obs           *obs.Recorder
}

// NewBackend builds a translation layer of the requested kind. This is
// the only place in the tree that maps storage.Kind to a concrete
// backend; everything above programs against storage.Backend.
func NewBackend(cfg BackendConfig) (storage.Backend, error) {
	switch cfg.Kind {
	case storage.KindFTL:
		return ftl.New(ftl.Config{
			Chip:             cfg.Medium,
			Streams:          cfg.Streams,
			OverProvisionPct: cfg.OverProvisionPct,
			GCLowWater:       cfg.GCLowWater,
			Obs:              cfg.Obs,
		})
	case storage.KindZNS:
		return zns.NewBackend(zns.BackendConfig{
			Chip:             cfg.Medium,
			Streams:          cfg.Streams,
			BlocksPerZone:    cfg.BlocksPerZone,
			OverProvisionPct: cfg.OverProvisionPct,
			GCLowWater:       cfg.GCLowWater,
			Obs:              cfg.Obs,
		})
	}
	return nil, fmt.Errorf("device: unknown backend kind %v", cfg.Kind)
}

// wireCapacity forwards backend capacity changes to the device callback;
// re-run after every remount, since each rebuild creates a fresh backend.
func (d *Device) wireCapacity() {
	pageSize := d.backend.LogicalPageSize()
	d.backend.SetCapacityCallback(func(pages int) {
		if d.OnCapacityChange != nil {
			d.OnCapacityChange(int64(pages) * int64(pageSize))
		}
	})
}

// PowerCycle simulates losing and restoring power: the in-RAM
// translation state is discarded, the fault injector (if any) is
// restored, and a fresh backend is rebuilt from the surviving medium's
// durable state (OOB tags, program cursors, retired-block markers). The
// device keeps its identity (telemetry counters, callbacks) across the
// cycle.
func (d *Device) PowerCycle() error {
	if d.inj != nil {
		d.inj.Restore()
	}
	be, err := d.backend.Recover()
	if err != nil {
		return fmt.Errorf("device: power cycle: %w", err)
	}
	d.backend = be
	d.wireCapacity()
	d.rebuilds++
	d.hardFaults = make([]int, d.chip.Blocks()) // fault history does not survive the crash
	d.obs.Record(obs.Event{Kind: obs.EvPowerCycle, Aux: d.rebuilds})
	return nil
}

// NewSOS builds the paper's SOS device on PLC silicon.
func NewSOS(geo flash.Geometry, seed uint64, clock *sim.Clock) (*Device, error) {
	return New(Config{
		Geometry:       geo,
		Tech:           flash.PLC,
		Streams:        SOSStreams(),
		Clock:          clock,
		Seed:           seed,
		EnduranceSigma: 0.1,
	})
}

// NewBaseline builds a conventional device on native cells of tech.
func NewBaseline(tech flash.Tech, geo flash.Geometry, seed uint64, clock *sim.Clock) (*Device, error) {
	return New(Config{
		Geometry:       geo,
		Tech:           tech,
		Streams:        BaselineStreams(tech),
		Clock:          clock,
		Seed:           seed,
		EnduranceSigma: 0.1,
	})
}

// streamFor maps a class hint to a stream, clamping to the last stream
// for single-partition baselines.
func (d *Device) streamFor(c Class) (ftl.StreamID, error) {
	if c != ClassSys && c != ClassSpare {
		return 0, ErrBadClass
	}
	n := len(d.backend.Streams())
	id := int(c)
	if id >= n {
		id = n - 1
	}
	return ftl.StreamID(id), nil
}

// PageSize returns the logical page size in bytes.
func (d *Device) PageSize() int { return d.backend.LogicalPageSize() }

// CapacityBytes returns the currently advertised logical capacity. It
// shrinks under capacity variance (§4.3).
func (d *Device) CapacityBytes() int64 {
	return int64(d.backend.UsablePages()) * int64(d.PageSize())
}

// Clock returns the device's simulation clock.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Backend exposes the translation layer for experiments and telemetry.
func (d *Device) Backend() storage.Backend { return d.backend }

// FTL returns the device-side FTL when that backend is mounted, nil
// otherwise. Stream-FTL-specific tests and experiments use it; code
// meant to run over either backend goes through Backend.
func (d *Device) FTL() *ftl.FTL {
	f, _ := d.backend.(*ftl.FTL)
	return f
}

// Chip exposes the raw flash chip for experiments and telemetry. Wear
// cycling and geometry inspection go here; I/O issued directly to the
// chip bypasses any installed fault plan.
func (d *Device) Chip() *flash.Chip { return d.chip }

// Medium exposes what the FTL actually reads and writes: the chip, or
// the fault injector wrapped around it.
func (d *Device) Medium() ftl.Flash { return d.medium }

// Injector returns the installed fault injector, or nil for a clean
// device.
func (d *Device) Injector() *fault.Injector { return d.inj }

// opFrame is the one-op scratch of a per-op Write or Read.
type opFrame struct {
	w      [1]BatchWrite
	ops    [1]storage.BatchOp
	fates  [1]storage.BatchFate
	r      [1]BatchRead
	rops   [1]storage.BatchReadOp
	rfates [1]storage.BatchReadFate
}

// pushFrame returns the one-op frame for the current nesting level.
func (d *Device) pushFrame() *opFrame {
	if d.depth == len(d.frames) {
		d.frames = append(d.frames, new(opFrame))
	}
	fr := d.frames[d.depth]
	d.depth++
	return fr
}

// popFrame releases the innermost frame.
func (d *Device) popFrame() { d.depth-- }

// Write stores one logical page under the given class hint: a one-op
// WriteBatch. data may be nil with dataLen set for accounting-only
// traffic. The returned latency is the modelled device time for the
// operation.
func (d *Device) Write(lba int64, data []byte, dataLen int, c Class) (sim.Time, error) {
	fr := d.pushFrame()
	defer d.popFrame()
	fr.w[0] = BatchWrite{LBA: lba, Data: data, DataLen: dataLen, Class: c}
	lat, fates, err := d.writeBatch(fr.w[:], fr.ops[:], fr.fates[:])
	fr.w[0], fr.ops[0] = BatchWrite{}, storage.BatchOp{}
	if err == nil {
		err = fates[0].Err
	}
	if err != nil {
		return 0, err
	}
	return lat, nil
}

// StoredDigest returns the digest durably recorded for a mapped lba,
// if any.
func (d *Device) StoredDigest(lba int64) (uint64, bool) {
	return d.backend.Digest(lba)
}

// BatchWrite is one logical write in a device batch (see WriteBatch).
type BatchWrite struct {
	LBA     int64
	Data    []byte
	DataLen int
	Class   Class
	// Digest/HasDigest carry the host-computed payload digest into the
	// backend's durable digest store (zero-valued = none tracked).
	Digest    uint64
	HasDigest bool
	// Hint is the predicted-lifetime bin (zero value = unhinted, which
	// reproduces pre-hint placement exactly).
	Hint storage.LifetimeHint
}

// Queues returns the configured submission-queue count.
func (d *Device) Queues() int { return d.queues }

// Workers returns the configured parallel-phase worker bound.
func (d *Device) Workers() int { return d.workers }

// ReadWorkers returns the configured batched-read worker bound.
func (d *Device) ReadWorkers() int { return d.readWorkers }

// WriteBatch stores a burst of logical pages through the multi-queue
// batched path. Each op gets a global submission sequence number and a
// submission queue (contiguous Seq chunks — sim.DealQueue), the backend
// encodes queues and programs planes in parallel as its safety rules
// allow, and completions merge back in canonical (virtual-time, queue,
// sequence) order. The stored state is byte-identical to issuing the
// same writes one at a time in order, at every queue and worker count.
//
// Modelled latency is the batch makespan: each successful program
// occupies its landing block's plane for the stream's program latency
// on a virtual-time lane, and the returned time is the horizon across
// lanes — this is where plane parallelism shows up in simulated time.
// fates[i] is the outcome of ws[i]; the slice is reused by the next
// batch. A class error rejects the whole batch before any state change.
func (d *Device) WriteBatch(ws []BatchWrite) (sim.Time, []storage.BatchFate, error) {
	n := len(ws)
	if cap(d.bops) < n {
		d.bops = make([]storage.BatchOp, n)
		d.bfates = make([]storage.BatchFate, n)
	}
	return d.writeBatch(ws, d.bops[:n], d.bfates[:n])
}

// writeBatch is WriteBatch over caller-provided op and fate scratch of
// len(ws) entries.
func (d *Device) writeBatch(ws []BatchWrite, ops []storage.BatchOp, fates []storage.BatchFate) (sim.Time, []storage.BatchFate, error) {
	n := len(ws)
	if n == 0 {
		return 0, nil, nil
	}
	for i := range ws {
		if c := ws[i].Class; c != ClassSys && c != ClassSpare {
			return 0, nil, ErrBadClass
		}
	}
	seq0 := d.batchSeq + 1
	for i := range ws {
		w := &ws[i]
		id, _ := d.streamFor(w.Class)
		d.batchSeq++
		ops[i] = storage.BatchOp{
			LPA: w.LBA, Data: w.Data, DataLen: w.DataLen,
			Stream: id, Seq: d.batchSeq, Queue: sim.DealQueue(i, n, d.queues),
			Digest: w.Digest, HasDigest: w.HasDigest, Hint: w.Hint,
		}
	}
	d.backend.WriteBatch(ops, fates, d.queues, d.workers)
	// Dispatch successes onto virtual-time lanes in canonical Seq order
	// (one lane per plane), then merge the completions.
	d.vt.Reset(0)
	comps := d.bcomps[:0]
	streams := d.backend.Streams()
	for i := range ops {
		if fates[i].Err != nil {
			continue
		}
		pol := &streams[ops[i].Stream]
		lat := d.latency.ProgramLatency(pol.Mode)
		lane := 0
		if fates[i].Block >= 0 {
			lane = d.chip.PlaneOf(fates[i].Block)
		}
		_, done := d.vt.Dispatch(lane, 0, lat)
		comps = append(comps, sim.Completion{Done: done, Queue: ops[i].Queue, Seq: ops[i].Seq})
	}
	d.bcomps = comps
	sim.SortCompletions(comps)
	// Observe in merged completion order — the order a host would see
	// interrupts — which is itself deterministic at every concurrency.
	for _, c := range comps {
		i := int(c.Seq - seq0)
		pol := &streams[ops[i].Stream]
		dataLen := ops[i].DataLen
		if ops[i].Data != nil {
			dataLen = len(ops[i].Data)
		}
		d.writeCount++
		d.obs.ObserveProgram(d.latency.ProgramLatency(pol.Mode), dataLen)
	}
	makespan := d.vt.Horizon()
	d.busy += makespan
	return makespan, fates, nil
}

// ReadResult augments the FTL result with modelled latency.
type ReadResult struct {
	ftl.ReadResult
	Latency sim.Time
}

// readRetryMax bounds immediate re-reads of a page that failed with a
// hard interface fault (flash.ErrReadFault) before the ladder escalates
// to relocation.
const readRetryMax = 3

// hardFaultRetireAfter is how many post-ladder hard faults a block may
// accumulate before the device quarantines it (seal, drain, retire).
const hardFaultRetireAfter = 3

// readLadder recovers from a hard read fault: bounded retries, then
// relocation off the failing page (which salvages approximate data),
// then a final re-read. Blocks that keep faulting are quarantined. For
// tolerant streams an unrecoverable page degrades — flagged, partial
// data — rather than failing the read; SYS faults propagate.
func (d *Device) readLadder(lba int64, rerr error) (ftl.ReadResult, error) {
	var res ftl.ReadResult
	var err error = rerr
	for attempt := 0; attempt < readRetryMax && err != nil && errors.Is(err, flash.ErrReadFault); attempt++ {
		d.readRetries++
		d.obs.Record(obs.Event{Kind: obs.EvReadRetry, LBA: lba, Aux: int64(attempt + 1)})
		res, err = d.backend.Read(lba)
	}
	if err == nil {
		d.salvagedReads++
		return res, nil
	}
	if !errors.Is(err, flash.ErrReadFault) {
		return ftl.ReadResult{}, err
	}
	ppa, stream, dataLen, ok := d.backend.Locate(lba)
	if !ok {
		return ftl.ReadResult{}, err
	}
	d.hardFaultCnt++
	d.hardFaults[ppa.Block]++
	if d.hardFaults[ppa.Block] >= hardFaultRetireAfter {
		// Retirement escalation: repeated hard faults condemn the block.
		if qerr := d.backend.Quarantine(ppa.Block); qerr == nil {
			d.quarantined++
			d.hardFaults[ppa.Block] = 0
		}
	}
	// Move the data off the failing page; for approximate streams an
	// unreadable source salvages to an accounting-only degraded page.
	if rerr := d.backend.Relocate(lba, stream); rerr == nil {
		if res, err = d.backend.Read(lba); err == nil {
			d.salvagedReads++
			return res, nil
		}
	}
	pol := d.backend.Streams()[stream]
	if pol.Approximate() {
		// Degradation is the product: report partial data, never fail.
		d.salvagedReads++
		return ftl.ReadResult{DataLen: dataLen, Degraded: true, Stream: stream}, nil
	}
	return ftl.ReadResult{}, fmt.Errorf("device: read lba %d: %w", lba, err)
}

// Read fetches one logical page: a one-op ReadBatch. Tolerant reads
// (SPARE-class data under approximate storage) skip the read-retry
// ladder. The payload aliases a backend buffer that stays valid until
// the next read on the device.
func (d *Device) Read(lba int64) (ReadResult, error) {
	fr := d.pushFrame()
	defer d.popFrame()
	fr.r[0] = BatchRead{LBA: lba}
	lat, fates := d.readBatch(fr.r[:], fr.rops[:], fr.rfates[:])
	if fates[0].Err != nil {
		return ReadResult{}, fates[0].Err
	}
	return ReadResult{ReadResult: fates[0].Res, Latency: lat}, nil
}

// BatchRead is one logical read in a device batch (see ReadBatch).
type BatchRead struct {
	LBA int64
}

// ReadBatch fetches a burst of logical pages through the multi-queue
// batched path: each op gets a global submission sequence number and a
// submission queue (contiguous Seq chunks — sim.DealQueue), the backend
// reads planes and decodes queues in parallel as its safety rules
// allow, and completions merge back in canonical (virtual-time, queue,
// sequence) order. Results are byte-identical to issuing the same reads
// one at a time in order, at every (queues, read-workers) setting.
//
// The device read ladder (retry → relocate → salvage → quarantine)
// applies per-slice on the settled results in canonical order, so fault
// semantics are unchanged; on a clean medium no fate ever carries a
// hard fault and the pass is a no-op.
//
// Modelled latency is the batch makespan: each successful read occupies
// its source block's plane for the stream's read latency on a
// virtual-time lane, and the returned time is the horizon across lanes.
// fates[i] is the outcome of rds[i]; the slice is reused by the next
// batch, and every payload it carries is invalidated by the next read
// on the device.
func (d *Device) ReadBatch(rds []BatchRead) (sim.Time, []storage.BatchReadFate) {
	n := len(rds)
	if cap(d.brops) < n {
		d.brops = make([]storage.BatchReadOp, n)
		d.brfates = make([]storage.BatchReadFate, n)
	}
	return d.readBatch(rds, d.brops[:n], d.brfates[:n])
}

// readBatch is ReadBatch over caller-provided op and fate scratch of
// len(rds) entries.
func (d *Device) readBatch(rds []BatchRead, ops []storage.BatchReadOp, fates []storage.BatchReadFate) (sim.Time, []storage.BatchReadFate) {
	n := len(rds)
	if n == 0 {
		return 0, nil
	}
	seq0 := d.batchSeq + 1
	for i := range rds {
		d.batchSeq++
		ops[i] = storage.BatchReadOp{
			LPA: rds[i].LBA, Seq: d.batchSeq,
			Queue: sim.DealQueue(i, n, d.queues),
		}
	}
	d.backend.ReadBatch(ops, fates, d.queues, d.readWorkers)
	// Fault ladder, per slice in canonical order, including relocation
	// and quarantine. Its re-reads go through the backend's one-op Read,
	// whose buffer the next ladder re-read recycles, so a recovered
	// payload is copied out.
	for i := range ops {
		if fates[i].Err == nil || !errors.Is(fates[i].Err, flash.ErrReadFault) {
			continue
		}
		fates[i].Res, fates[i].Err = d.readLadder(ops[i].LPA, fates[i].Err)
		if res := &fates[i].Res; res.Data != nil {
			res.Data = append([]byte(nil), res.Data...)
		}
	}
	// Dispatch successes onto virtual-time lanes in canonical Seq order
	// (one lane per plane), then merge the completions.
	d.vt.Reset(0)
	comps := d.bcomps[:0]
	for i := range ops {
		if fates[i].Err != nil {
			continue
		}
		lane := 0
		if fates[i].Block >= 0 {
			lane = d.chip.PlaneOf(fates[i].Block)
		}
		_, done := d.vt.Dispatch(lane, 0, d.readFateLatency(&fates[i].Res))
		comps = append(comps, sim.Completion{Done: done, Queue: ops[i].Queue, Seq: ops[i].Seq})
	}
	d.bcomps = comps
	sim.SortCompletions(comps)
	// Observe in merged completion order — the order a host would see
	// interrupts — which is itself deterministic at every concurrency.
	for _, c := range comps {
		i := int(c.Seq - seq0)
		d.readCount++
		d.obs.ObserveRead(d.readFateLatency(&fates[i].Res), fates[i].Res.DataLen)
	}
	makespan := d.vt.Horizon()
	d.busy += makespan
	return makespan, fates
}

// readFateLatency models one settled read's latency: tolerant reads
// skip the retry model, and the page's RBER is approximated from its
// flip count.
func (d *Device) readFateLatency(res *ftl.ReadResult) sim.Time {
	pol := &d.backend.Streams()[res.Stream]
	rber := 0.0
	if res.DataLen > 0 {
		rber = float64(res.RawFlips) / float64(res.DataLen*8)
	}
	return d.latency.ReadLatency(pol.Mode, rber, pol.Approximate())
}

// Trim discards a logical page.
func (d *Device) Trim(lba int64) error { return d.backend.Trim(lba) }

// Reclassify moves a logical page to the stream of the given class —
// the device side of the classifier's periodic review (§4.4).
func (d *Device) Reclassify(lba int64, c Class) error {
	id, err := d.streamFor(c)
	if err != nil {
		return err
	}
	if cur, ok := d.backend.StreamOf(lba); ok && cur == id {
		return nil // already there
	}
	return d.backend.Relocate(lba, id)
}

// ClassOf reports the class a mapped page is currently stored under.
func (d *Device) ClassOf(lba int64) (Class, bool) {
	id, ok := d.backend.StreamOf(lba)
	if !ok {
		return 0, false
	}
	if int(id) >= int(ClassSpare) {
		return ClassSpare, true
	}
	return ClassSys, true
}

// Scrub runs one degradation-monitor pass with the given move budget.
func (d *Device) Scrub(maxMoves int) (ftl.ScrubReport, error) {
	return d.backend.Scrub(maxMoves)
}

// Smart is SMART-style device telemetry.
type Smart struct {
	// Backend names the mounted translation layer ("ftl" or "zns").
	Backend         string
	CapacityBytes   int64
	PageSize        int
	Reads           int64
	Writes          int64
	BusyTime        sim.Time
	FTL             ftl.Stats
	AvgWearFrac     float64 // mean block wear fraction
	MaxWearFrac     float64
	RetiredBlocks   int64
	Resuscitations  int64
	WriteAmp        float64
	DegradedReads   int64
	TotalBlocks     int
	PercentLifeUsed float64 // max wear as percentage, the warranty metric
	// WearHistogram buckets blocks by wear fraction: [0] holds blocks
	// under 10% worn, [9] blocks at 90%+ (including past-rating blocks).
	WearHistogram [10]int

	// Fault-tolerance telemetry.
	ReadRetries       int64 // ladder re-reads after hard read faults
	SalvagedReads     int64 // reads recovered (or degraded-not-failed) by the ladder
	HardReadFaults    int64 // reads that exhausted immediate retries
	QuarantinedBlocks int64 // blocks condemned by retirement escalation
	Rebuilds          int64 // power cycles survived (FTL rebuilt from OOB)
	// Fault reports the installed injector's counters (zero for a clean
	// device).
	Fault fault.Stats
}

// Smart returns a telemetry snapshot.
func (d *Device) Smart() Smart {
	st := d.backend.Stats()
	var sum, max float64
	var hist [10]int
	n := 0
	for b := 0; b < d.chip.Blocks(); b++ {
		info, err := d.chip.Info(b)
		if err != nil {
			continue
		}
		sum += info.WearFrac
		if info.WearFrac > max {
			max = info.WearFrac
		}
		bucket := int(info.WearFrac * 10)
		if bucket > 9 {
			bucket = 9
		}
		if bucket < 0 {
			bucket = 0
		}
		hist[bucket]++
		n++
	}
	avg := 0.0
	if n > 0 {
		avg = sum / float64(n)
	}
	s := Smart{
		Backend:           d.backend.Name(),
		CapacityBytes:     d.CapacityBytes(),
		PageSize:          d.PageSize(),
		Reads:             d.readCount,
		Writes:            d.writeCount,
		BusyTime:          d.busy,
		FTL:               st,
		AvgWearFrac:       avg,
		MaxWearFrac:       max,
		RetiredBlocks:     st.Retired,
		Resuscitations:    st.Resuscitated,
		WriteAmp:          d.backend.WriteAmplification(),
		DegradedReads:     st.DegradedReads,
		TotalBlocks:       d.chip.Blocks(),
		PercentLifeUsed:   avg * 100,
		WearHistogram:     hist,
		ReadRetries:       d.readRetries,
		SalvagedReads:     d.salvagedReads,
		HardReadFaults:    d.hardFaultCnt,
		QuarantinedBlocks: d.quarantined,
		Rebuilds:          d.rebuilds,
	}
	if d.inj != nil {
		s.Fault = d.inj.FaultStats()
	}
	return s
}
