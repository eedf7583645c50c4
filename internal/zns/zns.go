// Package zns exposes the simulated flash as a zoned namespace — the
// alternative host interface §4.3 names alongside multi-stream: "the
// host is responsible for placing data blocks in relevant streams/zones
// with different management policies". Zones are append-only groups of
// erase blocks; the host (not an FTL) owns placement and reclamation.
// Each zone opens with an attribute — durable (pseudo-QLC + strong ECC)
// or approximate (native density, weak/no ECC) — mapping the SOS
// SYS/SPARE split onto zone semantics.
package zns

import (
	"errors"
	"fmt"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/storage"
)

// Zone lifecycle errors.
var (
	ErrBadZone      = errors.New("zns: zone id out of range")
	ErrNotOpen      = errors.New("zns: zone is not open")
	ErrNotEmpty     = errors.New("zns: zone is not empty")
	ErrZoneFull     = errors.New("zns: zone is full")
	ErrOffline      = errors.New("zns: zone is offline")
	ErrPayloadLarge = errors.New("zns: payload exceeds page size")
)

// ZoneState is the zone lifecycle state (a simplified NVMe ZNS model).
type ZoneState int

// Zone states.
const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneFull
	// ZoneOffline zones have worn out and accept no further writes;
	// their contents remain readable. This is capacity variance at the
	// zone granularity.
	ZoneOffline
)

func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "empty"
	case ZoneOpen:
		return "open"
	case ZoneFull:
		return "full"
	case ZoneOffline:
		return "offline"
	default:
		return fmt.Sprintf("ZoneState(%d)", int(s))
	}
}

// Attr selects a zone's management policy when opened.
type Attr int

// Zone attributes.
const (
	// Durable zones hold critical data: reduced density, strong ECC.
	Durable Attr = iota
	// Approximate zones hold degradation-tolerant data: full density,
	// weak or no ECC.
	Approximate
)

func (a Attr) String() string {
	if a == Durable {
		return "durable"
	}
	return "approximate"
}

// AttrPolicy is the mode/protection pair an attribute maps to.
type AttrPolicy struct {
	Mode   flash.Mode
	Scheme ecc.Scheme
}

// Config builds a zoned device.
type Config struct {
	// Chip is the medium: a *flash.Chip or any storage.Flash wrapper
	// around one (e.g. the fault interposer).
	Chip storage.Flash
	// BlocksPerZone groups erase blocks into zones (default 1).
	BlocksPerZone int
	// Durable/Approx policies; zero values select the SOS defaults for
	// the chip's technology.
	Durable *AttrPolicy
	Approx  *AttrPolicy
	// DurableRetireFrac and ApproxRetireFrac offline a zone of that
	// attribute whose mean wear passes the fraction at reset time
	// (default 1.0 durable / 1.15 approximate — approximate zones run
	// past their rating like SOS SPARE does).
	DurableRetireFrac float64
	ApproxRetireFrac  float64
}

// zone is internal zone state.
type zone struct {
	state  ZoneState
	attr   Attr
	wp     int // pages appended so far
	blocks []int
	// pages caches each block's page count in its current mode and
	// capacity their sum: the zone's layout. Only Open switches block
	// modes, so New and Open fill it (see layout) and no append or lookup
	// asks the chip.
	pages    []int
	capacity int
	// lens records each appended payload's logical length.
	lens []int
}

// Device is a zoned flash device.
type Device struct {
	chip    storage.Flash
	zones   []zone
	perZone int
	pol     [2]AttrPolicy
	retire  [2]float64

	appends int64
	resets  int64
	offline int64
}

// New builds a zoned device over the chip (which must be fresh: all
// blocks erased).
func New(cfg Config) (*Device, error) {
	if cfg.Chip == nil {
		return nil, errors.New("zns: nil chip")
	}
	perZone := cfg.BlocksPerZone
	if perZone == 0 {
		perZone = 1
	}
	if perZone < 1 || perZone > cfg.Chip.Blocks() {
		return nil, fmt.Errorf("zns: blocks per zone %d out of range", perZone)
	}
	tech := cfg.Chip.Tech()
	durable := cfg.Durable
	if durable == nil {
		bits := tech.BitsPerCell() - 1
		if bits < 1 {
			bits = 1
		}
		m, err := flash.PseudoMode(tech, bits)
		if err != nil {
			return nil, err
		}
		durable = &AttrPolicy{Mode: m, Scheme: ecc.MustRSScheme(223, 32)}
	}
	approx := cfg.Approx
	if approx == nil {
		approx = &AttrPolicy{Mode: flash.NativeMode(tech), Scheme: ecc.DetectOnly{}}
	}
	for _, p := range []*AttrPolicy{durable, approx} {
		if !p.Mode.Valid() || p.Mode.Phys != tech {
			return nil, fmt.Errorf("zns: policy mode %v invalid for %v chip", p.Mode, tech)
		}
		if p.Scheme == nil {
			return nil, errors.New("zns: policy without scheme")
		}
		geo := cfg.Chip.Geometry()
		if over := p.Scheme.Overhead(geo.PageSize); over > geo.RawPageBytes() {
			return nil, fmt.Errorf("zns: scheme %s does not fit page+spare", p.Scheme.Name())
		}
	}
	dr := cfg.DurableRetireFrac
	if dr == 0 {
		dr = 1.0
	}
	ar := cfg.ApproxRetireFrac
	if ar == 0 {
		ar = 1.15
	}

	nz := cfg.Chip.Blocks() / perZone
	d := &Device{
		chip:    cfg.Chip,
		perZone: perZone,
		pol:     [2]AttrPolicy{*durable, *approx},
		retire:  [2]float64{dr, ar},
	}
	for z := 0; z < nz; z++ {
		var blocks []int
		for i := 0; i < perZone; i++ {
			blocks = append(blocks, z*perZone+i)
		}
		d.zones = append(d.zones, zone{state: ZoneEmpty, blocks: blocks, pages: make([]int, perZone)})
		if err := d.layout(&d.zones[z]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// layout refills zn's cached page counts and capacity from the chip.
func (d *Device) layout(zn *zone) error {
	zn.capacity = 0
	for i, b := range zn.blocks {
		pages, err := d.chip.PagesIn(b)
		if err != nil {
			return err
		}
		zn.pages[i] = pages
		zn.capacity += pages
	}
	return nil
}

// Zones returns the number of zones.
func (d *Device) Zones() int { return len(d.zones) }

// ZoneInfo is a zone telemetry snapshot.
type ZoneInfo struct {
	ID       int
	State    ZoneState
	Attr     Attr
	WP       int // pages appended
	Capacity int // pages appendable in the current attribute's mode
	MeanWear float64
}

// Info returns a zone's snapshot.
func (d *Device) Info(z int) (ZoneInfo, error) {
	if z < 0 || z >= len(d.zones) {
		return ZoneInfo{}, ErrBadZone
	}
	zn := &d.zones[z]
	var wear float64
	for _, b := range zn.blocks {
		info, err := d.chip.Info(b)
		if err != nil {
			return ZoneInfo{}, err
		}
		wear += info.WearFrac
	}
	return ZoneInfo{
		ID: z, State: zn.state, Attr: zn.attr, WP: zn.wp,
		Capacity: zn.capacity, MeanWear: wear / float64(len(zn.blocks)),
	}, nil
}

// Open transitions an empty zone to open under the given attribute,
// setting its blocks' operating mode.
func (d *Device) Open(z int, attr Attr) error {
	if z < 0 || z >= len(d.zones) {
		return ErrBadZone
	}
	zn := &d.zones[z]
	switch zn.state {
	case ZoneOffline:
		return ErrOffline
	case ZoneEmpty:
	default:
		return ErrNotEmpty
	}
	if attr != Durable && attr != Approximate {
		return fmt.Errorf("zns: unknown attribute %d", int(attr))
	}
	mode := d.pol[attr].Mode
	for _, b := range zn.blocks {
		info, err := d.chip.Info(b)
		if err != nil {
			return err
		}
		if info.Mode != mode {
			if err := d.chip.SetMode(b, mode); err != nil {
				return err
			}
		}
	}
	// An Open that failed above leaves the zone empty, its layout stale
	// only if the medium died mid-loop; recovery rebuilds through New.
	if err := d.layout(zn); err != nil {
		return err
	}
	zn.attr = attr
	zn.state = ZoneOpen
	zn.wp = 0
	zn.lens = zn.lens[:0]
	return nil
}

// locate maps a zone-relative page index to (block, page) through the
// zone's cached layout, without asking the chip.
func (zn *zone) locate(idx int) (int, int, error) {
	for i, pages := range zn.pages {
		if idx < pages {
			return zn.blocks[i], idx, nil
		}
		idx -= pages
	}
	return 0, 0, ErrZoneFull
}

// Append programs one page at zone z's write pointer and records tag
// in its OOB area, so a host-side FTL can rebuild its mapping tables
// after a power loss (see Backend). The page arrives already encoded
// through the zone attribute's scheme — the device stores codewords and
// leaves decoding to the host's read engine. stored == nil performs an
// accounting-only append occupying storedLen physical bytes; dataLen is
// the logical payload length either way. Append returns the page's
// zone-relative index and the chip (block, page) it landed on.
func (d *Device) Append(z int, stored []byte, storedLen, dataLen int, tag flash.PageTag) (idx, blk, page int, err error) {
	if z < 0 || z >= len(d.zones) {
		return 0, 0, 0, ErrBadZone
	}
	zn := &d.zones[z]
	if zn.state == ZoneOffline {
		return 0, 0, 0, ErrOffline
	}
	if zn.state != ZoneOpen {
		return 0, 0, 0, ErrNotOpen
	}
	if dataLen <= 0 || dataLen > d.chip.Geometry().PageSize {
		return 0, 0, 0, ErrPayloadLarge
	}
	blk, page, err = zn.locate(zn.wp)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := d.chip.ProgramTagged(blk, page, stored, storedLen, tag); err != nil {
		if errors.Is(err, flash.ErrProgramFail) {
			// Hard failure: the zone finishes early; the host moves on.
			zn.state = ZoneFull
			return 0, 0, 0, ErrZoneFull
		}
		return 0, 0, 0, err
	}
	idx = zn.wp
	zn.wp++
	zn.lens = append(zn.lens, dataLen)
	d.appends++
	if zn.wp >= zn.capacity {
		zn.state = ZoneFull
	}
	return idx, blk, page, nil
}

// Finish transitions an open zone to full (no more appends).
func (d *Device) Finish(z int) error {
	if z < 0 || z >= len(d.zones) {
		return ErrBadZone
	}
	zn := &d.zones[z]
	if zn.state != ZoneOpen {
		return ErrNotOpen
	}
	zn.state = ZoneFull
	return nil
}

// Reset erases a zone back to empty. A zone whose mean wear passed its
// attribute's retirement fraction, or whose erase failed, goes offline
// instead. Either way the erase leaves nothing addressable, so hosts
// copy live data out before resetting.
func (d *Device) Reset(z int) error {
	if z < 0 || z >= len(d.zones) {
		return ErrBadZone
	}
	zn := &d.zones[z]
	if zn.state == ZoneOffline {
		return ErrOffline
	}
	for _, b := range zn.blocks {
		if err := d.chip.Erase(b); err != nil {
			if !errors.Is(err, flash.ErrEraseFail) {
				// Not a wear signal (e.g. power loss from a fault
				// interposer): surface it rather than retiring a healthy
				// zone on a transient condition.
				return fmt.Errorf("zns: reset zone %d: erase block %d: %w", z, b, err)
			}
			// Hard erase failure: the whole zone goes offline. Part of
			// the zone was already erased, so no contents remain
			// addressable.
			d.goOffline(zn)
			return nil
		}
	}
	zn.wp = 0
	zn.lens = zn.lens[:0]
	d.resets++

	info, err := d.Info(z)
	if err != nil {
		return err
	}
	if info.MeanWear >= d.retire[zn.attr] {
		d.goOffline(zn)
		return nil
	}
	zn.state = ZoneEmpty
	return nil
}

// goOffline transitions a zone offline and retires its blocks on the
// chip, so the transition survives power loss: recovery recognises an
// offline zone by its retired blocks. Retired blocks stay readable, and
// individual Retire failures are ignored — any retired block marks the
// zone, and recovery retires the stragglers.
func (d *Device) goOffline(zn *zone) {
	zn.state = ZoneOffline
	zn.wp = 0
	zn.lens = zn.lens[:0]
	d.offline++
	for _, b := range zn.blocks {
		_ = d.chip.Retire(b)
	}
}

// Stats is device telemetry.
type Stats struct {
	Appends      int64
	Resets       int64
	OfflineZones int64
}

// Stats returns cumulative counts.
func (d *Device) Stats() Stats {
	return Stats{Appends: d.appends, Resets: d.resets, OfflineZones: d.offline}
}
