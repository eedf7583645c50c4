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
//
// Its storage.Reclaimer holds one Unit per zone — owner, lifetime bin,
// live and stale pages, the write pointer as Programmed, open-or-full as
// InUse, and Condemned for a quarantined zone, which drains with
// priority and is forced offline at reset — and the mapping tables:
// P2L indexed by zone*zcap+idx, where zcap is the zone page stride at
// native density, and the private, paged L2P (a pool entry per live
// page, LPAs up to storage.MaxLPA) the backend reaches through Lookup,
// SetMapping and ClearMapping.
type Backend struct {
	storage.Reclaimer

	dev     *Device
	chip    storage.Flash
	streams []storage.StreamPolicy
	attrs   []Attr // zone attribute per stream
	obs     *obs.Recorder
	cfg     BackendConfig // as given; Recover remounts from it

	gcLow       int // empty-zone low water triggering GC
	reserve     int // zones held back as relocation headroom
	logicalSz   int
	writeSerial uint64

	// bs is WriteBatch's reusable scratch (see batch.go).
	bs batchScratch
	// One-op scratch for Write: per-op calls are batches of one.
	w1op   [1]storage.BatchOp
	w1fate [1]storage.BatchFate
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
		gcLow:     low,
		reserve:   reserve,
		logicalSz: cfg.Chip.Geometry().PageSize,
	}
	b.Init(storage.ReclaimConfig{
		Name: "zns", Chip: cfg.Chip, Streams: cfg.Streams, Obs: cfg.Obs, Ops: unitOps{b},
		Units: nz, Stride: zcap, BlocksPerUnit: bpz,
		LowWater: low, Reserve: reserve,
	})
	return b, nil
}

var _ storage.Backend = (*Backend)(nil)

// unitOps answers the shared reclaim policy's questions about zones
// (storage.UnitOps), keeping the hooks off the Backend's own method set.
type unitOps struct{ *Backend }

// FreeUnits returns the number of empty zones.
func (o unitOps) FreeUnits() int { return o.emptyZones() }

// Wear returns zone z's mean block wear.
func (o unitOps) Wear(z int) (float64, error) {
	info, err := o.dev.Info(z)
	return info.MeanWear, err
}

// PageAddr maps a zone-relative page index to its chip address.
func (o unitOps) PageAddr(z, idx int) (storage.PPA, error) {
	blk, page, err := o.dev.zones[z].locate(idx)
	return storage.PPA{Block: blk, Page: page}, err
}

// Remap appends a relocated page to its destination stream's open zone
// for the page's bin (dipping into the reserve, never running GC) and
// installs it; the append stamps the serial once the zone is secured.
func (o unitOps) Remap(lpa int64, old storage.Mapping, mv storage.Moved, tag flash.PageTag) error {
	z, idx, _, _, err := o.appendCore(mv.Stored, mv.StoredLen, tag, false)
	if err != nil {
		return err
	}
	old.Unit, old.Index, old.Stream, old.BaseFlips = z, idx, storage.StreamID(tag.Stream), mv.BaseFlips
	o.install(lpa, old)
	return nil
}

// Reset resets a drained zone.
func (o unitOps) Reset(z int) error { return o.resetZone(z) }

// Level does nothing: a zone is written whole, so there is no static
// wear leveling inside it.
func (o unitOps) Level(storage.StreamID) {}

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

// openFor opens the best empty zone for the (stream, bin) and installs
// it as the slot's active zone: min-wear for wear-leveled streams,
// max-wear (keep reusing the hot zones) otherwise — the zone-granular
// analog of the FTL's allocation policy. The bin is recorded on the
// zone so dead-data-aware GC and crash recovery see the same placement.
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
		b.NotifyCapacity()
	}
	if err := b.dev.Open(best, attr); err != nil {
		return -1, err
	}
	u := &b.Units[best]
	u.Owner, u.Bin, u.Parks, u.InUse = id, h, 0, true
	b.Activate(best)
	return best, nil
}

// activeWritable returns the (stream, bin)'s open zone if it still
// accepts appends (the device seals zones at capacity and on program
// failure).
func (b *Backend) activeWritable(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	z := b.Active[storage.ActiveSlot(id, h)]
	if z < 0 {
		return -1, nil
	}
	if b.dev.zones[z].state == ZoneOpen {
		return z, nil
	}
	b.Deactivate(z)
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
		prev := b.GCRuns
		b.RunGC(id)
		if b.GCRuns == prev {
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
	return b.openFor(id, h)
}

// relocZone returns an appendable zone for relocation; it may dip into
// the reserve but never triggers recursive GC.
func (b *Backend) relocZone(id storage.StreamID, h storage.LifetimeHint) (int, error) {
	if z, err := b.activeWritable(id, h); err != nil || z >= 0 {
		return z, err
	}
	return b.openFor(id, h)
}

// Write stores data (length <= LogicalPageSize) at lpa under the given
// stream: a one-op WriteBatch. A nil data with dataLen > 0 performs an
// accounting-only write.
func (b *Backend) Write(lpa int64, data []byte, dataLen int, id storage.StreamID) error {
	// The result is read before the deferred capacity callback runs, so
	// a callback that writes again cannot overwrite it.
	defer b.FlushCapacity()
	b.w1op[0] = storage.BatchOp{LPA: lpa, Data: data, DataLen: dataLen, Stream: id}
	b.writeBatch(b.w1op[:], b.w1fate[:], 1, 1)
	b.w1op[0] = storage.BatchOp{}
	return b.w1fate[0].Err
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
	id, hint := storage.StreamID(tag.Stream), storage.LifetimeHint(tag.Hint)
	for attempt := 0; attempt < storage.MaxProgramAttempts; attempt++ {
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
			if b.dev.zones[z].state != ZoneOpen {
				b.Deactivate(z)
			}
			b.Units[z].Programmed = b.dev.zones[z].wp
			b.FlashPrograms++
			b.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: tag.LPA, Block: blk, Page: page, Stream: int(id), Aux: int64(tag.DataLen)})
			return z, idx, blk, page, nil
		}
		if !errors.Is(aerr, ErrZoneFull) {
			return -1, -1, -1, -1, fmt.Errorf("zns: append zone %d: %w", z, aerr)
		}
		b.ProgFailures++
		b.Deactivate(z)
	}
	return -1, -1, -1, -1, fmt.Errorf("zns: %d consecutive program failures: %w", storage.MaxProgramAttempts, flash.ErrProgramFail)
}

// install records a new physical location for lpa, superseding any old
// one host-side (no on-device stale marking exists; recovery resolves
// duplicates newest-serial-wins); m.DataLen must be >= 1.
func (b *Backend) install(lpa int64, m storage.Mapping) {
	if old, ok := b.Lookup(lpa); ok {
		b.drop(old)
	}
	b.SetMapping(lpa, m)
	b.Units[m.Unit].Live++
}

// drop forgets a superseded physical location: the page turns stale.
func (b *Backend) drop(m storage.Mapping) {
	b.P2L[b.PageIndex(m.Unit, m.Index)] = -1
	u := &b.Units[m.Unit]
	u.Live--
	u.Stale++
}

// Trim drops the mapping for lpa (host discard / file delete).
func (b *Backend) Trim(lpa int64) error {
	m, ok := b.Lookup(lpa)
	if !ok {
		return storage.ErrUnknownLPA
	}
	b.drop(m)
	b.ClearMapping(lpa)
	return nil
}

// resetZone resets a drained zone; the device applies wear policy and
// may take it offline, and condemned zones are forced offline — both
// are capacity variance, reported via the callback. A condemned zone
// with nothing programmed since its last erase goes offline unerased,
// the way ftl retires an unallocated block.
func (b *Backend) resetZone(z int) error {
	zn := &b.dev.zones[z]
	u := &b.Units[z]
	if u.Live != 0 {
		return fmt.Errorf("zns: resetting zone %d with %d live pages", z, u.Live)
	}
	if u.Condemned && zn.wp == 0 {
		b.dev.goOffline(zn)
	} else if err := b.dev.Reset(z); err != nil {
		return err
	}
	b.Deactivate(z)
	if zn.state != ZoneOffline && u.Condemned {
		b.dev.goOffline(zn)
	}
	// The owner stays: it labels the zone's events until it reopens.
	u.Bin, u.Stale, u.Programmed, u.InUse, u.Condemned, u.Parks = storage.HintNone, 0, 0, false, false, 0
	if zn.state == ZoneOffline {
		b.NotifyCapacity()
		for _, blk := range zn.blocks {
			b.obs.Record(obs.Event{Kind: obs.EvRetire, Block: blk})
		}
		return nil
	}
	for _, blk := range zn.blocks {
		b.obs.Record(obs.Event{Kind: obs.EvErase, Block: blk, Stream: int(u.Owner)})
	}
	return nil
}

// Quarantine condemns the zone containing the given chip block after
// repeated hard faults observed above the backend: the zone takes no
// further appends, GC drains its live pages with priority, and it goes
// offline at reset regardless of wear. An empty condemned zone retires
// immediately.
func (b *Backend) Quarantine(blk int) error {
	defer b.FlushCapacity()
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
	b.Units[z].Condemned = true
	b.Deactivate(z)
	if zn.state == ZoneOpen {
		zn.state = ZoneFull
	}
	b.obs.Record(obs.Event{Kind: obs.EvQuarantine, Block: blk, Stream: int(b.Units[z].Owner)})
	if zn.state == ZoneEmpty || b.Units[z].Live == 0 {
		return b.resetZone(z)
	}
	return nil
}

// UsablePages returns the physical pages of non-offline zones in their
// current modes, minus the reserve — the shrinking capacity the device
// layer advertises (§4.3 capacity variance).
func (b *Backend) UsablePages() int {
	total := 0
	for z := range b.dev.zones {
		if zn := &b.dev.zones[z]; zn.state != ZoneOffline {
			total += zn.capacity
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
	st := b.Reclaimer.Stats()
	st.Retired = int64(offline * b.dev.perZone)
	st.FreeBlocks = empty * b.dev.perZone
	return st
}
