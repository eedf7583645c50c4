package zns

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// Backend is a host-side FTL over the zoned device: the paper's other
// co-design interface (§4.3), where the *host* owns placement. It maps
// the multi-stream contract onto zones — each stream's policy becomes a
// zone attribute, writes append to a per-stream open zone, invalidity
// is tracked host-side (a zoned device has no per-page stale command),
// and reclamation is zone-granular: live pages are copied out and the
// zone is reset, going offline at end of life (capacity variance at
// zone granularity). It implements storage.Backend so the entire stack
// above internal/device runs unchanged over streams or zones.
type Backend struct {
	dev     *Device
	chip    storage.Flash
	streams []storage.StreamPolicy
	attrs   []Attr // zone attribute per stream
	obs     *obs.Recorder
	cfg     BackendConfig // as given; Recover remounts from it

	// Dense mapping tables, mirroring the device-side FTL: l2p is
	// indexed directly by LPA (dataLen == 0 marks an unmapped entry) and
	// grows on demand; p2l is indexed by zone*zcap+idx with -1 for "no
	// live page", where zcap is the zone page stride at native density.
	// mapped counts live entries.
	l2p    []zmapping
	p2l    []int64
	zcap   int
	mapped int

	owner     []storage.StreamID     // per zone: stream that opened it
	live      []int                  // per zone: live page count
	condemned []bool                 // per zone: drain with priority, then force offline
	zhint     []storage.LifetimeHint // per zone: lifetime bin it was opened for
	zparks    []uint8                // per zone: consecutive GC victim deferrals
	active    []int                  // per (stream, bin) slot: open zone taking appends; -1 none
	gcLow     int                    // empty-zone low water triggering GC
	reserve   int                    // zones held back as relocation headroom
	logicalSz int

	// gcSkip marks zones deferred as GC victims within one runGC pass;
	// gcSkipped lists the marked zones so clearing is O(deferred).
	gcSkip    []bool
	gcSkipped []int

	// Telemetry (the storage.Stats vocabulary at zone granularity).
	hostWrites    int64
	flashPrograms int64
	gcRuns        int64 // zone reclamations
	gcMoves       int64
	degradedReads int64
	progFailures  int64
	relocRetries  int64
	salvagedPages int64
	salvagedBytes int64
	writeSerial   uint64

	// Lifetime-hint telemetry: hintedWrites gates the dead-skip GC fast
	// path (zero hints => pre-hint behavior, byte for byte).
	hintedWrites   int64
	deadSkipDefers int64
	deadSkipPages  int64

	onCapacity func(usablePages int)
	capDirty   bool

	// bs is WriteBatch's reusable scratch (see batch.go).
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
	// relocations never nest, since their appends never run GC.
	reloc storage.Relocation
}

// zmapping is the host-side L2P entry.
type zmapping struct {
	zone, idx int
	stream    storage.StreamID
	dataLen   int
	// baseFlips carries degradation crystallized across relocations of
	// accounting-only pages, exactly as in the device-side FTL.
	baseFlips int
	// digest mirrors the page's OOB tag digest (storage.Backend.Digest);
	// relocation copies it verbatim, so it always hashes the original
	// host payload.
	digest    uint64
	hasDigest bool
	// hint mirrors the page's OOB lifetime bin; relocation carries it
	// verbatim so same-bin data stays co-located across moves.
	hint storage.LifetimeHint
}

// BackendConfig configures the zoned backend. The field vocabulary
// matches ftl.Config so the device layer can build either from one
// shape.
type BackendConfig struct {
	// Chip is the medium: a *flash.Chip or any storage.Flash wrapper
	// around one (e.g. the fault interposer).
	Chip    storage.Flash
	Streams []storage.StreamPolicy
	// BlocksPerZone groups erase blocks into zones (default 4).
	BlocksPerZone int
	// OverProvisionPct of zones reserved for GC headroom (default 7).
	OverProvisionPct int
	// GCLowWater is the empty-zone count that triggers GC (default
	// reserve+2).
	GCLowWater int
	// Obs, when non-nil, receives trace events; recording only reads
	// state, so it never perturbs a deterministic run.
	Obs *obs.Recorder
}

// NewBackend builds the host FTL over a fresh zoned device. Stream
// policies are projected onto the two zone attributes: durable streams
// (real ECC) share the durable policy, approximate streams (None or
// DetectOnly) share the approximate one; at most one distinct
// mode/scheme pair may map to each attribute.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.Chip == nil {
		return nil, errors.New("zns: nil chip")
	}
	if len(cfg.Streams) == 0 {
		return nil, errors.New("zns: at least one stream required")
	}
	attrs := make([]Attr, len(cfg.Streams))
	var pol [2]*AttrPolicy
	var frac [2]float64
	for i := range cfg.Streams {
		s := &cfg.Streams[i]
		if s.Scheme == nil {
			return nil, fmt.Errorf("zns: stream %d (%s) has no ECC scheme", i, s.Name)
		}
		a := Durable
		if s.Approximate() {
			a = Approximate
		}
		attrs[i] = a
		if p := pol[a]; p != nil {
			if p.Mode != s.Mode || p.Scheme.Name() != s.Scheme.Name() {
				return nil, fmt.Errorf("zns: stream %d (%s) conflicts with another %v stream: one zone policy per attribute", i, s.Name, a)
			}
			continue
		}
		pol[a] = &AttrPolicy{Mode: s.Mode, Scheme: s.Scheme}
		frac[a] = s.WearRetireFrac
	}
	// A single-attribute workload still needs both device policies.
	if pol[Durable] == nil {
		pol[Durable] = pol[Approximate]
		frac[Durable] = frac[Approximate]
	}
	if pol[Approximate] == nil {
		pol[Approximate] = pol[Durable]
		frac[Approximate] = frac[Durable]
	}
	bpz := cfg.BlocksPerZone
	if bpz == 0 {
		bpz = 4
	}
	dev, err := New(Config{
		Chip:              cfg.Chip,
		BlocksPerZone:     bpz,
		Durable:           pol[Durable],
		Approx:            pol[Approximate],
		DurableRetireFrac: frac[Durable],
		ApproxRetireFrac:  frac[Approximate],
	})
	if err != nil {
		return nil, err
	}
	op := cfg.OverProvisionPct
	if op == 0 {
		op = 7
	}
	if op < 0 || op >= 50 {
		return nil, fmt.Errorf("zns: over-provisioning %d%% out of range", op)
	}
	nz := dev.Zones()
	reserve := nz * op / 100
	if reserve < 1 {
		reserve = 1
	}
	low := cfg.GCLowWater
	if low < reserve+2 {
		low = reserve + 2
	}
	if low >= nz {
		return nil, fmt.Errorf("zns: GC low water %d leaves no writable zones of %d", low, nz)
	}
	zcap := bpz * cfg.Chip.Geometry().PagesPerBlock
	b := &Backend{
		dev:       dev,
		chip:      cfg.Chip,
		streams:   cfg.Streams,
		attrs:     attrs,
		obs:       cfg.Obs,
		cfg:       cfg,
		p2l:       make([]int64, nz*zcap),
		zcap:      zcap,
		owner:     make([]storage.StreamID, nz),
		live:      make([]int, nz),
		condemned: make([]bool, nz),
		zhint:     make([]storage.LifetimeHint, nz),
		zparks:    make([]uint8, nz),
		gcSkip:    make([]bool, nz),
		active:    make([]int, len(cfg.Streams)*storage.NumLifetimeHints),
		gcLow:     low,
		reserve:   reserve,
		logicalSz: cfg.Chip.Geometry().PageSize,
	}
	for i := range b.p2l {
		b.p2l[i] = -1
	}
	for i := range b.active {
		b.active[i] = -1
	}
	return b, nil
}

var _ storage.Backend = (*Backend)(nil)

// aidx maps a (stream, lifetime-bin) pair to its active-zone slot.
// aidx(0, HintNone) == 0, so unhinted single-stream state lands exactly
// where the pre-hint design kept it.
func aidx(id storage.StreamID, h storage.LifetimeHint) int {
	return int(id)*storage.NumLifetimeHints + int(h)
}

// Name identifies the backend kind for telemetry and the -backend flag.
func (b *Backend) Name() string { return "zns" }

// LogicalPageSize returns the payload bytes per logical page.
func (b *Backend) LogicalPageSize() int { return b.logicalSz }

// Streams returns the configured stream policies.
func (b *Backend) Streams() []storage.StreamPolicy { return b.streams }

// Device exposes the underlying zoned device (telemetry, tests).
func (b *Backend) Device() *Device { return b.dev }

// Chip exposes the underlying medium.
func (b *Backend) Chip() storage.Flash { return b.chip }

// SetCapacityCallback installs the capacity-variance callback.
func (b *Backend) SetCapacityCallback(fn func(usablePages int)) { b.onCapacity = fn }

func (b *Backend) notifyCapacity() { b.capDirty = true }

// flushCapacity delivers a pending capacity-change notification at the
// end of the public operation that caused it.
func (b *Backend) flushCapacity() {
	if !b.capDirty {
		return
	}
	b.capDirty = false
	if b.onCapacity != nil {
		b.onCapacity(b.UsablePages())
	}
}

// emptyZones counts zones available for opening.
func (b *Backend) emptyZones() int {
	n := 0
	for z := range b.dev.zones {
		if b.dev.zones[z].state == ZoneEmpty {
			n++
		}
	}
	return n
}

// isActive reports whether z is some stream's append target.
func (b *Backend) isActive(z int) bool {
	for _, a := range b.active {
		if a == z {
			return true
		}
	}
	return false
}

// openFor opens the best empty zone for the (stream, bin): min-wear for
// wear-leveled streams, max-wear (keep reusing the hot zones) otherwise
// — the zone-granular analog of the FTL's allocation policy. The bin is
// recorded on the zone so dead-data-aware GC and crash recovery see the
// same placement.
func (b *Backend) openFor(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	pol := &b.streams[id]
	best := -1
	var bestWear float64
	for z := range b.dev.zones {
		if b.dev.zones[z].state != ZoneEmpty {
			continue
		}
		info, err := b.dev.Info(z)
		if err != nil {
			return -1, err
		}
		if best < 0 ||
			(pol.WearLeveling && info.MeanWear < bestWear) ||
			(!pol.WearLeveling && info.MeanWear > bestWear) {
			best, bestWear = z, info.MeanWear
		}
	}
	if best < 0 {
		return -1, storage.ErrNoSpace
	}
	attr := b.attrs[id]
	// Opening under a different attribute switches block modes and
	// therefore the page count the zone offers.
	if info, err := b.chip.Info(b.dev.zones[best].blocks[0]); err == nil && info.Mode != b.dev.pol[attr].Mode {
		b.notifyCapacity()
	}
	if err := b.dev.Open(best, attr); err != nil {
		return -1, err
	}
	b.owner[best] = id
	b.zhint[best] = h
	b.zparks[best] = 0
	return best, nil
}

// activeWritable returns the (stream, bin)'s open zone if it still
// accepts appends (the device seals zones at capacity and on program
// failure).
func (b *Backend) activeWritable(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	s := aidx(id, h)
	z := b.active[s]
	if z < 0 {
		return -1, nil
	}
	if b.dev.zones[z].state == ZoneOpen {
		return z, nil
	}
	b.active[s] = -1
	return -1, nil
}

// writableZone returns an appendable zone for the (stream, bin),
// reclaiming and opening zones as needed. Host opens never drain the
// reserve.
func (b *Backend) writableZone(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	if z, err := b.activeWritable(id, h); err != nil || z >= 0 {
		return z, err
	}
	for b.emptyZones() <= b.gcLow {
		prev := b.gcRuns
		b.runGC(id)
		if b.gcRuns == prev {
			break
		}
	}
	// GC relocation may have opened a zone for this slot already.
	if z, err := b.activeWritable(id, h); err != nil || z >= 0 {
		return z, err
	}
	if b.emptyZones() <= b.reserve {
		return -1, storage.ErrNoSpace
	}
	z, err := b.openFor(id, h)
	if err != nil {
		return -1, err
	}
	b.active[aidx(id, h)] = z
	return z, nil
}

// relocZone returns an appendable zone for relocation; it may dip into
// the reserve but never triggers recursive GC.
func (b *Backend) relocZone(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	if z, err := b.activeWritable(id, h); err != nil || z >= 0 {
		return z, err
	}
	z, err := b.openFor(id, h)
	if err != nil {
		return -1, err
	}
	b.active[aidx(id, h)] = z
	return z, nil
}

// Write stores data (length <= LogicalPageSize) at lpa under the given
// stream: a one-op WriteBatch. A nil data with dataLen > 0 performs an
// accounting-only write.
func (b *Backend) Write(lpa int64, data []byte, dataLen int, id storage.StreamID) error {
	// The result is read before the deferred capacity callback runs, so
	// a callback that writes again cannot overwrite it.
	defer b.flushCapacity()
	b.w1op[0] = storage.BatchOp{LPA: lpa, Data: data, DataLen: dataLen, Stream: id}
	b.writeBatch(b.w1op[:], b.w1fate[:], 1, 1)
	b.w1op[0] = storage.BatchOp{}
	return b.w1fate[0].Err
}

// Hint returns the recorded lifetime bin for a mapped lpa
// (storage.Backend).
func (b *Backend) Hint(lpa int64) (storage.LifetimeHint, bool) {
	m, ok := b.lookup(lpa)
	if !ok {
		return storage.HintNone, false
	}
	return m.hint, true
}

// Digest returns the recorded payload digest for a mapped lpa
// (storage.Backend).
func (b *Backend) Digest(lpa int64) (uint64, bool) {
	m, ok := b.lookup(lpa)
	if !ok || !m.hasDigest {
		return 0, false
	}
	return m.digest, true
}

// appendCore appends one page, pre-encoded through the zone
// attribute's scheme (nil for accounting-only), into the open zone of
// the tag's (stream, bin) slot, absorbing program-status failures: the
// device seals the failed zone early (ErrZoneFull below the capacity we
// pre-checked) and the append retries on a fresh zone — the
// zone-granular analog of sealing a failed block. Host writes (host
// true) may run GC to find a zone; relocations, which GC itself issues,
// may not. It also reports the chip (block, page) the page landed on,
// so batched callers can stamp virtual-time lanes.
func (b *Backend) appendCore(stored []byte, storedLen int, tag flash.PageTag, host bool) (zn, idx, blk, page int, err error) {
	const maxAttempts = 4
	id, hint := storage.StreamID(tag.Stream), storage.LifetimeHint(tag.Hint)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		var z int
		var err error
		if host {
			z, err = b.writableZone(id, hint)
		} else {
			z, err = b.relocZone(id, hint)
		}
		if err != nil {
			return -1, -1, -1, -1, err
		}
		// The serial is stamped only after the destination zone is
		// secured: writableZone may run GC, and GC relocations stamp
		// serials of their own through this same path. Stamping before
		// zone selection would let a relocated stale copy of this very
		// LPA carry a newer serial than the write being acked — and win
		// the newest-serial rebuild election after a crash (silent loss).
		// A fresh serial per attempt also keeps a successful retry ahead
		// of any readable tag a failed program left behind.
		b.writeSerial++
		tag.Serial = b.writeSerial
		idx, blk, page, aerr := b.dev.Append(z, stored, storedLen, int(tag.DataLen), tag)
		if aerr == nil {
			// The device seals the zone when the append hits capacity.
			if s := aidx(id, hint); b.dev.zones[z].state != ZoneOpen && b.active[s] == z {
				b.active[s] = -1
			}
			b.flashPrograms++
			b.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: tag.LPA, Block: blk, Page: page, Stream: int(id), Aux: int64(tag.DataLen)})
			return z, idx, blk, page, nil
		}
		if !errors.Is(aerr, ErrZoneFull) {
			return -1, -1, -1, -1, fmt.Errorf("zns: append zone %d: %w", z, aerr)
		}
		b.progFailures++
		b.active[aidx(id, hint)] = -1
	}
	return -1, -1, -1, -1, fmt.Errorf("zns: %d consecutive program failures: %w", maxAttempts, flash.ErrProgramFail)
}

// pidx converts a zone-relative address to its p2l table index.
func (b *Backend) pidx(zone, idx int) int { return zone*b.zcap + idx }

// lookup returns the live mapping for lpa, if any.
func (b *Backend) lookup(lpa int64) (zmapping, bool) {
	if lpa < 0 || lpa >= int64(len(b.l2p)) || b.l2p[lpa].dataLen == 0 {
		return zmapping{}, false
	}
	return b.l2p[lpa], true
}

// install records a new physical location for lpa, superseding any old
// one host-side (no on-device stale marking exists; recovery resolves
// duplicates newest-serial-wins). The dense l2p grows on demand with
// amortized doubling; m.dataLen must be >= 1.
func (b *Backend) install(lpa int64, m zmapping) {
	if old, ok := b.lookup(lpa); ok {
		b.drop(old)
	}
	if lpa >= int64(len(b.l2p)) {
		n := 2 * int64(len(b.l2p))
		if n < lpa+1 {
			n = lpa + 1
		}
		grown := make([]zmapping, n)
		copy(grown, b.l2p)
		b.l2p = grown
	}
	if b.l2p[lpa].dataLen == 0 {
		b.mapped++
	}
	b.l2p[lpa] = m
	b.p2l[b.pidx(m.zone, m.idx)] = lpa
	b.live[m.zone]++
}

// drop forgets a superseded physical location.
func (b *Backend) drop(m zmapping) {
	b.p2l[b.pidx(m.zone, m.idx)] = -1
	b.live[m.zone]--
}

// ReadBatch implements storage.Backend: the backend resolves every op
// to its zone location in canonical order and the shared read engine
// runs the read, decode, and settle phases. Zone reads have no shared
// cursor (unlike appends), so the batch fans out across planes exactly
// like the device-side FTL's: a zone's blocks are consecutive chip
// blocks striped across planes. Results are identical for every
// (queues, workers) pair.
func (b *Backend) ReadBatch(ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	b.readBatch(&b.rs, ops, fates, queues, workers)
}

// Read fetches lpa, decoding through the stream's ECC scheme: a one-op
// batch on the backend's one-op engine. The payload stays valid until
// the next Read.
func (b *Backend) Read(lpa int64) (storage.ReadResult, error) {
	b.r1op[0] = storage.BatchReadOp{LPA: lpa}
	b.readBatch(&b.r1, b.r1op[:], b.r1fate[:], 1, 1)
	return b.r1fate[0].Res, b.r1fate[0].Err
}

// readBatch is the resolve pass: unmapped or unlocatable LPAs get their
// final fate here; the rest go to the engine with everything later
// phases need, so no phase touches the L2P table concurrently.
func (b *Backend) readBatch(e *storage.ReadEngine, ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	e.Begin(b.chip, len(ops))
	for i := range ops {
		fates[i] = storage.BatchReadFate{Block: -1, Page: -1}
		m, ok := b.lookup(ops[i].LPA)
		if !ok {
			fates[i].Err = storage.ErrUnknownLPA
			continue
		}
		blk, page, err := b.dev.locate(&b.dev.zones[m.zone], m.idx)
		if err != nil {
			fates[i].Err = err
			continue
		}
		fates[i].Block, fates[i].Page = blk, page
		e.Add(i, ops[i].LPA, storage.PPA{Block: blk, Page: page}, m.stream, b.streams[m.stream].Scheme, m.dataLen, m.baseFlips)
	}
	b.degradedReads += e.Run(ops, fates, queues, workers, "zns", b.obs)
}

// Trim drops the mapping for lpa (host discard / file delete).
func (b *Backend) Trim(lpa int64) error {
	m, ok := b.lookup(lpa)
	if !ok {
		return storage.ErrUnknownLPA
	}
	b.drop(m)
	b.l2p[lpa] = zmapping{}
	b.mapped--
	return nil
}

// Contains reports whether lpa is mapped.
func (b *Backend) Contains(lpa int64) bool {
	_, ok := b.lookup(lpa)
	return ok
}

// StreamOf returns the stream a mapped lpa belongs to.
func (b *Backend) StreamOf(lpa int64) (storage.StreamID, bool) {
	m, ok := b.lookup(lpa)
	return m.stream, ok
}

// Locate reports where a mapped lpa physically lives in chip
// coordinates, so the device layer's fault ladder works identically
// over both backends.
func (b *Backend) Locate(lpa int64) (ppa storage.PPA, stream storage.StreamID, dataLen int, ok bool) {
	m, found := b.lookup(lpa)
	if !found {
		return storage.PPA{}, 0, 0, false
	}
	blk, page, err := b.dev.locate(&b.dev.zones[m.zone], m.idx)
	if err != nil {
		return storage.PPA{}, 0, 0, false
	}
	return storage.PPA{Block: blk, Page: page}, m.stream, m.dataLen, true
}

// MappedPages returns the number of live logical pages.
func (b *Backend) MappedPages() int { return b.mapped }

// runGC reclaims stale capacity at zone granularity. Fully-dead zones
// reset first (no relocation destination needed), then one live victim
// is drained and reset, preferring the requesting stream's zones.
func (b *Backend) runGC(prefer storage.StreamID) {
	startMoves, startRuns := b.gcMoves, b.gcRuns
	defer func() {
		if b.gcRuns != startRuns {
			moves := b.gcMoves - startMoves
			b.obs.Record(obs.Event{Kind: obs.EvGC, Stream: int(prefer), Aux: moves})
			b.obs.ObserveGC(int(moves))
		}
	}()
	swept := false
	for z := range b.dev.zones {
		zn := &b.dev.zones[z]
		if zn.state != ZoneFull && zn.state != ZoneOpen {
			continue
		}
		if b.isActive(z) || b.live[z] != 0 {
			continue
		}
		if zn.wp == 0 && zn.state != ZoneFull {
			continue
		}
		if err := b.resetZone(z); err == nil {
			b.gcRuns++
			swept = true
		}
	}
	if swept && b.emptyZones() > b.gcLow {
		return
	}
	victim := b.pickVictim(prefer)
	if victim < 0 {
		victim = b.pickVictim(-1)
	}
	// Dead-data-aware deferral: a victim holding mostly hot data (bins
	// predicting imminent death) is parked — its pages will self-
	// invalidate, so relocating them now is wasted wear. The decision is
	// a pure function of OOB-persisted hints plus pool pressure, so a
	// crash-rebuilt backend reaches it identically.
	for victim >= 0 && b.deferVictim(victim) {
		next := b.pickVictim(prefer)
		if next < 0 {
			next = b.pickVictim(-1)
		}
		victim = next
	}
	for _, z := range b.gcSkipped {
		b.gcSkip[z] = false
	}
	b.gcSkipped = b.gcSkipped[:0]
	if victim < 0 {
		return
	}
	if err := b.reclaim(victim); err != nil {
		// A reclaim failure (e.g. destination exhaustion) leaves the
		// victim as-is; the caller will surface ErrNoSpace.
		return
	}
	b.gcRuns++
}

// maxZoneParks caps consecutive deferrals of one zone, so parked hot
// data cannot starve reclamation if predictions are wrong.
const maxZoneParks = 4

// deferVictim decides whether to park zone z instead of reclaiming it.
// Parking is profitable when at least half the zone's live pages are
// hot-binned: they are predicted to die (TRIM or overwrite) before the
// relocation pays for itself. Never defers with no hinted writes (the
// byte-identity fast path), for condemned zones, past the park cap, or
// when the empty pool is nearly exhausted.
func (b *Backend) deferVictim(z int) bool {
	if b.hintedWrites == 0 {
		return false
	}
	if b.condemned[z] || b.zparks[z] >= maxZoneParks {
		return false
	}
	if b.emptyZones() <= b.reserve+1 {
		return false // emergency: reclaim whatever we have
	}
	hot := 0
	liveSeen := 0
	base := z * b.zcap
	wp := b.dev.zones[z].wp
	for idx := 0; idx < wp; idx++ {
		lpa := b.p2l[base+idx]
		if lpa < 0 {
			continue
		}
		liveSeen++
		if b.l2p[lpa].hint == storage.HintHot {
			hot++
		}
	}
	if hot == 0 || hot*2 < liveSeen {
		return false
	}
	b.zparks[z]++
	b.deadSkipDefers++
	b.deadSkipPages += int64(hot)
	b.gcSkip[z] = true
	b.gcSkipped = append(b.gcSkipped, z)
	return true
}

// pickVictim chooses the zone with the most reclaimable space among
// zones owned by stream id (or any if id < 0). Condemned zones drain
// first. Wear-leveled streams score cost-benefit; others pure greedy —
// wear deliberately ignored, as for SPARE blocks (§4.3).
func (b *Backend) pickVictim(id storage.StreamID) int {
	best := -1
	bestScore := 0.0
	for z := range b.dev.zones {
		zn := &b.dev.zones[z]
		if zn.state != ZoneFull && zn.state != ZoneOpen {
			continue
		}
		if id >= 0 && b.owner[z] != id {
			continue
		}
		if b.isActive(z) {
			continue
		}
		if b.gcSkip[z] {
			continue // parked this pass by deferVictim
		}
		if b.condemned[z] {
			return z
		}
		stale := zn.wp - b.live[z]
		if stale <= 0 {
			continue
		}
		pol := &b.streams[b.owner[z]]
		costBenefit := pol.GC == storage.GCCostBenefit ||
			(pol.GC == storage.GCAuto && pol.WearLeveling)
		score := float64(stale)
		if costBenefit {
			info, err := b.dev.Info(z)
			if err != nil {
				continue
			}
			score = float64(stale) / float64(b.live[z]+1) / (1 + info.MeanWear)
		}
		if score > bestScore {
			bestScore = score
			best = z
		}
	}
	return best
}

// reclaim drains the victim's live pages in append order and resets
// it. The live pages are read as per-block runs — a zone's blocks are
// consecutive chip blocks, so append order visits each block (= one
// plane) as a contiguous segment — then relocate in append order.
func (b *Backend) reclaim(z int) error {
	zn := &b.dev.zones[z]
	base := z * b.zcap
	r := &b.reloc
	r.Reset()
	for idx := 0; idx < zn.wp; idx++ {
		lpa := b.p2l[base+idx]
		if lpa < 0 {
			continue
		}
		blk, page, err := b.dev.locate(zn, idx)
		if err != nil {
			return err
		}
		m := b.l2p[lpa]
		r.Add(lpa, storage.PPA{Block: blk, Page: page}, b.streams[m.stream].Scheme, m.dataLen)
	}
	if r.Len() == 0 {
		return b.resetZone(z)
	}
	b.relocRetries += r.Read(b.chip)
	var err error
	for k := 0; k < r.Len() && err == nil; k++ {
		lpa, op := r.Page(k)
		err = b.relocateFrom(lpa, b.l2p[lpa].stream, op)
	}
	r.Release(b.chip)
	if err != nil {
		return err
	}
	return b.resetZone(z)
}

// resetZone resets a drained zone; the device applies wear policy and
// may take it offline, and condemned zones are forced offline — both
// are capacity variance, reported via the callback.
func (b *Backend) resetZone(z int) error {
	zn := &b.dev.zones[z]
	if b.live[z] != 0 {
		return fmt.Errorf("zns: resetting zone %d with %d live pages", z, b.live[z])
	}
	id := b.owner[z]
	forceOffline := b.condemned[z]
	if err := b.dev.Reset(z); err != nil {
		return err
	}
	for i, a := range b.active {
		if a == z {
			b.active[i] = -1
		}
	}
	if zn.state != ZoneOffline && forceOffline {
		b.dev.goOffline(zn)
	}
	b.condemned[z] = false
	b.zhint[z] = storage.HintNone
	b.zparks[z] = 0
	if zn.state == ZoneOffline {
		b.notifyCapacity()
		for _, blk := range zn.blocks {
			b.obs.Record(obs.Event{Kind: obs.EvRetire, Block: blk})
		}
		return nil
	}
	for _, blk := range zn.blocks {
		b.obs.Record(obs.Event{Kind: obs.EvErase, Block: blk, Stream: int(id)})
	}
	return nil
}

// relocate rewrites lpa into stream dst (same stream = GC/refresh,
// different = promotion/demotion) as a one-page relocation, preserving
// accumulated degradation — corruption crystallizes across moves
// exactly as in the device FTL.
func (b *Backend) relocate(lpa int64, dst storage.StreamID) error {
	m, ok := b.lookup(lpa)
	if !ok {
		return storage.ErrUnknownLPA
	}
	blk, page, err := b.dev.locate(&b.dev.zones[m.zone], m.idx)
	if err != nil {
		return err
	}
	r := &b.reloc
	r.Reset()
	r.Add(lpa, storage.PPA{Block: blk, Page: page}, b.streams[m.stream].Scheme, m.dataLen)
	b.relocRetries += r.Read(b.chip)
	_, op := r.Page(0)
	err = b.relocateFrom(lpa, dst, op)
	r.Release(b.chip)
	return err
}

// relocateFrom finishes a relocation whose source page op has been
// read: the shared relocation step (storage.Relocation.Move), then a
// pre-encoded append and remap.
func (b *Backend) relocateFrom(lpa int64, dst storage.StreamID, op *flash.ReadOp) error {
	m, ok := b.lookup(lpa)
	if !ok {
		return storage.ErrUnknownLPA
	}
	mv, err := b.reloc.Move(op, &b.streams[m.stream], b.streams[dst].Scheme, m.dataLen, m.baseFlips)
	if err != nil {
		return fmt.Errorf("zns: relocate %d/%d: %w", op.Block, op.Page, err)
	}
	if mv.Salvaged {
		b.salvagedPages++
		b.salvagedBytes += int64(m.dataLen)
		b.obs.Record(obs.Event{Kind: obs.EvSalvage, LBA: lpa, Block: op.Block, Page: op.Page, Stream: int(m.stream), Aux: int64(m.dataLen)})
	}
	if mv.Degraded {
		b.degradedReads++
	}
	// The digest is copied verbatim — never recomputed from the decoded
	// payload — so corruption crystallized by this move stays detectable
	// as a digest mismatch.
	// The hint moves verbatim with the page, so same-bin data stays
	// co-located across GC and demotion moves. appendCore stamps the
	// serial once the destination zone is secured.
	tag := flash.PageTag{LPA: lpa, Stream: uint8(dst), DataLen: int32(m.dataLen), Digest: m.digest, HasDigest: m.hasDigest, Hint: uint8(m.hint)}
	z, idx, _, _, err := b.appendCore(mv.Stored, mv.StoredLen, tag, false)
	if err != nil {
		return err
	}
	b.gcMoves++
	b.install(lpa, zmapping{zone: z, idx: idx, stream: dst, dataLen: m.dataLen, baseFlips: mv.BaseFlips, digest: m.digest, hasDigest: m.hasDigest, hint: m.hint})
	return nil
}

// Relocate moves a logical page to a different stream. When zones are
// exhausted it runs GC and retries once.
func (b *Backend) Relocate(lpa int64, dst storage.StreamID) error {
	defer b.flushCapacity()
	if dst < 0 || int(dst) >= len(b.streams) {
		return storage.ErrUnknownStream
	}
	err := b.relocate(lpa, dst)
	if errors.Is(err, storage.ErrNoSpace) {
		b.runGC(dst)
		err = b.relocate(lpa, dst)
	}
	return err
}

// Quarantine condemns the zone containing the given chip block after
// repeated hard faults observed above the backend: the zone takes no
// further appends, GC drains its live pages with priority, and it goes
// offline at reset regardless of wear. An empty condemned zone retires
// immediately.
func (b *Backend) Quarantine(blk int) error {
	defer b.flushCapacity()
	if blk < 0 || blk >= b.chip.Blocks() {
		return fmt.Errorf("zns: quarantine block %d: %w", blk, flash.ErrBadAddress)
	}
	z := blk / b.dev.perZone
	if z >= len(b.dev.zones) {
		return fmt.Errorf("zns: quarantine block %d: %w", blk, flash.ErrBadAddress)
	}
	zn := &b.dev.zones[z]
	if zn.state == ZoneOffline {
		return nil
	}
	b.condemned[z] = true
	for i, a := range b.active {
		if a == z {
			b.active[i] = -1
		}
	}
	if zn.state == ZoneOpen {
		zn.state = ZoneFull
	}
	b.obs.Record(obs.Event{Kind: obs.EvQuarantine, Block: blk, Stream: int(b.owner[z])})
	if zn.state == ZoneEmpty || b.live[z] == 0 {
		return b.resetZone(z)
	}
	return nil
}

// Scrub is the degradation monitor (§4.3) at zone granularity: live
// pages whose modelled RBER exceeds their stream's retire threshold are
// relocated, and zones fully drained by the pass are reset.
func (b *Backend) Scrub(maxMoves int) (storage.ScrubReport, error) {
	defer b.flushCapacity()
	var rep storage.ScrubReport
	// Walk the dense table in LPA order; no snapshot is needed because
	// relocation rewrites existing entries in place and never maps new
	// LPAs (matching the old sorted-snapshot order exactly).
	dirty := make([]bool, len(b.dev.zones))
	for lpa := int64(0); lpa < int64(len(b.l2p)); lpa++ {
		m, ok := b.lookup(lpa)
		if !ok {
			continue
		}
		rep.PagesChecked++
		blk, page, err := b.dev.locate(&b.dev.zones[m.zone], m.idx)
		if err != nil {
			continue
		}
		rber, err := b.chip.PageRBER(blk, page)
		if err != nil {
			continue
		}
		pol := &b.streams[m.stream]
		threshold := pol.RetireRBER
		if threshold == 0 {
			threshold = storage.DefaultRetireRBER
		}
		if rber < threshold {
			continue
		}
		if maxMoves > 0 && rep.PagesRelocated >= maxMoves {
			break
		}
		if err := b.relocate(lpa, m.stream); err != nil {
			return rep, err
		}
		dirty[m.zone] = true
		rep.PagesRelocated++
	}
	for z := range b.dev.zones {
		if !dirty[z] {
			continue
		}
		zn := &b.dev.zones[z]
		if (zn.state == ZoneFull || zn.state == ZoneOpen) && b.live[z] == 0 && !b.isActive(z) && zn.wp > 0 {
			if err := b.resetZone(z); err != nil {
				return rep, err
			}
			rep.BlocksFreed += b.dev.perZone
		}
	}
	b.obs.Record(obs.Event{Kind: obs.EvScrub, Aux: int64(rep.PagesRelocated)})
	b.obs.ObserveScrub(rep.PagesRelocated)
	return rep, nil
}

// UsablePages returns the physical pages of non-offline zones in their
// current modes, minus the reserve — the shrinking capacity the device
// layer advertises (§4.3 capacity variance).
func (b *Backend) UsablePages() int {
	total := 0
	for z := range b.dev.zones {
		zn := &b.dev.zones[z]
		if zn.state == ZoneOffline {
			continue
		}
		for _, blk := range zn.blocks {
			pages, err := b.chip.PagesIn(blk)
			if err != nil {
				continue
			}
			total += pages
		}
	}
	total -= b.reserve * b.dev.perZone * b.chip.Geometry().PagesPerBlock
	if total < 0 {
		total = 0
	}
	return total
}

// Stats returns a telemetry snapshot in the shared vocabulary: Retired
// and FreeBlocks count blocks of offline and empty zones, GCRuns counts
// zone reclamations.
func (b *Backend) Stats() storage.Stats {
	offline, empty := 0, 0
	for z := range b.dev.zones {
		switch b.dev.zones[z].state {
		case ZoneOffline:
			offline++
		case ZoneEmpty:
			empty++
		}
	}
	return storage.Stats{
		HostWrites:    b.hostWrites,
		FlashPrograms: b.flashPrograms,
		GCRuns:        b.gcRuns,
		GCMoves:       b.gcMoves,
		Retired:       int64(offline * b.dev.perZone),
		DegradedReads: b.degradedReads,
		ProgFailures:  b.progFailures,
		RelocRetries:  b.relocRetries,
		SalvagedPages: b.salvagedPages,
		SalvagedBytes: b.salvagedBytes,
		FreeBlocks:    empty * b.dev.perZone,
		MappedPages:   b.mapped,
	}
}

// WriteAmplification returns flash programs per host write.
func (b *Backend) WriteAmplification() float64 {
	if b.hostWrites == 0 {
		return 0
	}
	return float64(b.flashPrograms) / float64(b.hostWrites)
}

// HintedWrites returns how many host writes carried a lifetime bin.
func (b *Backend) HintedWrites() int64 { return b.hintedWrites }

// DeadSkipStats reports dead-data-aware GC activity: victim deferrals
// and the hot live pages those deferrals declined to relocate.
func (b *Backend) DeadSkipStats() (defers, pages int64) {
	return b.deadSkipDefers, b.deadSkipPages
}
