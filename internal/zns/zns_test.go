package zns

import (
	"bytes"
	"errors"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

func testZNS(t *testing.T, blocks, perZone int) (*Device, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: blocks},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     51,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, BlocksPerZone: perZone})
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil chip accepted")
	}
	clock := &sim.Clock{}
	chip, _ := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 4, Blocks: 4},
		Tech:     flash.PLC, Clock: clock,
	})
	if _, err := New(Config{Chip: chip, BlocksPerZone: 9}); err == nil {
		t.Fatal("oversized zone accepted")
	}
	// Foreign-tech policy.
	if _, err := New(Config{Chip: chip, Durable: &AttrPolicy{Mode: flash.NativeMode(flash.TLC)}}); err == nil {
		t.Fatal("foreign mode accepted")
	}
}

func TestZoneLifecycle(t *testing.T) {
	d, _ := testZNS(t, 8, 2)
	if d.Zones() != 4 {
		t.Fatalf("zones = %d", d.Zones())
	}
	info, err := d.Info(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != ZoneEmpty {
		t.Fatalf("fresh zone state %v", info.State)
	}
	// Append before open is rejected.
	if _, _, _, err := d.Append(0, nil, 1, 1, flash.PageTag{}); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("append on empty: %v", err)
	}
	if err := d.Open(0, Durable); err != nil {
		t.Fatal(err)
	}
	// Double open is rejected.
	if err := d.Open(0, Durable); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("double open: %v", err)
	}
	// Durable zones run in pseudo-QLC: capacity = 2 blocks x 8 pages.
	info, _ = d.Info(0)
	if info.Capacity != 16 {
		t.Fatalf("durable capacity %d, want 16", info.Capacity)
	}
	// Finish then reset.
	if err := d.Finish(0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.Append(0, nil, 1, 1, flash.PageTag{}); !errors.Is(err, ErrNotOpen) {
		t.Fatal("append on full zone accepted")
	}
	if err := d.Reset(0); err != nil {
		t.Fatal(err)
	}
	info, _ = d.Info(0)
	if info.State != ZoneEmpty || info.WP != 0 {
		t.Fatalf("after reset: %+v", info)
	}
}

// TestAppendReadRoundtrip pins the pre-encoded append contract: the
// device stores exactly the codeword and tag it is handed at the chip
// address Append reports, and the host decodes it back to the payload.
func TestAppendReadRoundtrip(t *testing.T) {
	d, _ := testZNS(t, 8, 1)
	if err := d.Open(1, Durable); err != nil {
		t.Fatal(err)
	}
	scheme := d.pol[Durable].Scheme
	payloads := [][]byte{
		[]byte("first"), []byte("second-longer-payload"), bytes.Repeat([]byte{0x5a}, 512),
	}
	for i, p := range payloads {
		stored, err := scheme.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		tag := flash.PageTag{LPA: int64(100 + i), DataLen: int32(len(p)), Serial: uint64(i + 1)}
		idx, blk, page, err := d.Append(1, stored, len(stored), len(p), tag)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i || blk != 1 || page != i {
			t.Fatalf("append %d landed at index %d, chip %d/%d", i, idx, blk, page)
		}
		raw, err := d.chip.Read(blk, page)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw.Data) != len(stored) {
			t.Fatalf("payload %d stored as %d bytes, want %d", i, len(raw.Data), len(stored))
		}
		data, _, err := ecc.DecodeStored(scheme, raw.Data)
		if err != nil || !bytes.Equal(data, p) {
			t.Fatalf("payload %d mismatch (%v)", i, err)
		}
		if got, ok, err := d.chip.Tag(blk, page); err != nil || !ok || got != tag {
			t.Fatalf("payload %d tag %+v (%v, %v), want %+v", i, got, ok, err, tag)
		}
		if d.zones[1].lens[idx] != len(p) {
			t.Fatalf("payload %d recorded length %d", i, d.zones[1].lens[idx])
		}
	}
}

func TestZoneFillsToCapacity(t *testing.T) {
	d, _ := testZNS(t, 4, 1)
	if err := d.Open(0, Approximate); err != nil {
		t.Fatal(err)
	}
	// Native PLC: 10 pages.
	for i := 0; i < 10; i++ {
		if _, _, _, err := d.Append(0, nil, 104, 100, flash.PageTag{}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	info, _ := d.Info(0)
	if info.State != ZoneFull {
		t.Fatalf("state after fill: %v", info.State)
	}
	if _, _, _, err := d.Append(0, nil, 104, 100, flash.PageTag{}); !errors.Is(err, ErrNotOpen) && !errors.Is(err, ErrZoneFull) {
		t.Fatalf("append on full: %v", err)
	}
}

// TestAttrGovernsDegradation checks that a zone's attribute sets its
// page's fate: on worn PLC aged three years, a SYS page in a durable
// zone reads back clean and intact under Reed–Solomon, while a SPARE
// page in an approximate zone reads back degraded.
func TestAttrGovernsDegradation(t *testing.T) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 8},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     51,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-wear all blocks close to PLC rating.
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < 350; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	b, err := NewBackend(BackendConfig{Chip: chip, Streams: testStreams(t), BlocksPerZone: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xcc}, 512)
	const sys, spare = storage.StreamID(0), storage.StreamID(1)
	if err := b.Write(0, payload, 0, sys); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(1, payload, 0, spare); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * sim.Year)
	durable, err := b.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if durable.Degraded {
		t.Fatal("durable zone degraded under RS protection")
	}
	if !bytes.Equal(durable.Data, payload) {
		t.Fatal("durable zone corrupted")
	}
	approx, err := b.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Degraded {
		t.Fatal("approximate zone aged 3y on worn PLC read back clean")
	}
}

func chipOf(d *Device) *flash.Chip { return d.chip.(*flash.Chip) }

func TestResetWearOfflinesZone(t *testing.T) {
	d, _ := testZNS(t, 4, 1)
	chip := chipOf(d)
	// Wear block 0 past the approximate retirement fraction (1.15x400).
	for i := 0; i < 470; i++ {
		if err := chip.Erase(0); err != nil {
			break // hard failure also acceptable
		}
	}
	if err := d.Open(0, Approximate); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.Append(0, nil, 5, 1, flash.PageTag{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Reset(0); err != nil {
		t.Fatal(err)
	}
	info, _ := d.Info(0)
	if info.State != ZoneOffline {
		t.Fatalf("worn zone state %v, want offline", info.State)
	}
	if err := d.Open(0, Durable); !errors.Is(err, ErrOffline) {
		t.Fatalf("open offline zone: %v", err)
	}
	if d.Stats().OfflineZones != 1 {
		t.Fatalf("offline count %d", d.Stats().OfflineZones)
	}
}

func TestHostSideGCPattern(t *testing.T) {
	// The host-owned reclamation loop the zoned interface implies:
	// copy live pages from a victim zone into a fresh zone, then reset
	// the victim.
	d, _ := testZNS(t, 6, 1)
	if err := d.Open(0, Approximate); err != nil {
		t.Fatal(err)
	}
	scheme := d.pol[Approximate].Scheme
	var live [][]byte
	for i := 0; i < 10; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 64)
		stored, err := scheme.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := d.Append(0, stored, len(stored), len(p), flash.PageTag{}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // host considers even payloads live
			live = append(live, p)
		}
	}
	// Relocate live pages to zone 1 as stored: both zones share the
	// approximate scheme.
	if err := d.Open(1, Approximate); err != nil {
		t.Fatal(err)
	}
	var moved []int
	for i := 0; i < 10; i += 2 {
		raw, err := d.chip.Read(0, i)
		if err != nil {
			t.Fatal(err)
		}
		_, blk, page, err := d.Append(1, raw.Data, len(raw.Data), d.zones[0].lens[i], flash.PageTag{})
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, blk, page)
	}
	if err := d.Reset(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range live {
		raw, err := d.chip.Read(moved[2*i], moved[2*i+1])
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := scheme.Decode(raw.Data)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("live payload %d lost in host GC (%v)", i, err)
		}
	}
	if d.Stats().Resets != 1 {
		t.Fatalf("resets = %d", d.Stats().Resets)
	}
}

func TestAccountingAppend(t *testing.T) {
	d, _ := testZNS(t, 4, 1)
	if err := d.Open(0, Approximate); err != nil {
		t.Fatal(err)
	}
	idx, blk, page, err := d.Append(0, nil, 304, 300, flash.PageTag{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.chip.Read(blk, page)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Data != nil || raw.DataLen != 304 || d.zones[0].lens[idx] != 300 {
		t.Fatalf("accounting page: %+v, recorded length %d", raw, d.zones[0].lens[idx])
	}
	if _, _, _, err := d.Append(0, nil, 4, 0, flash.PageTag{}); !errors.Is(err, ErrPayloadLarge) {
		t.Fatalf("zero-length append: %v", err)
	}
	if _, _, _, err := d.Append(0, nil, 517, 513, flash.PageTag{}); !errors.Is(err, ErrPayloadLarge) {
		t.Fatalf("oversize append: %v", err)
	}
}

func TestBadZoneIDs(t *testing.T) {
	d, _ := testZNS(t, 4, 1)
	if _, err := d.Info(99); !errors.Is(err, ErrBadZone) {
		t.Fatal("bad info id")
	}
	if err := d.Open(-1, Durable); !errors.Is(err, ErrBadZone) {
		t.Fatal("bad open id")
	}
	if _, _, _, err := d.Append(99, nil, 5, 1, flash.PageTag{}); !errors.Is(err, ErrBadZone) {
		t.Fatal("bad append id")
	}
	if err := d.Reset(99); !errors.Is(err, ErrBadZone) {
		t.Fatal("bad reset id")
	}
	if err := d.Finish(99); !errors.Is(err, ErrBadZone) {
		t.Fatal("bad finish id")
	}
}

// TestZoneStateMachineRandom drives random operations across zones and
// checks that every response is consistent with the zone's state:
// appends succeed only on open zones with room, and offline zones
// refuse everything but Info.
func TestZoneStateMachineRandom(t *testing.T) {
	d, _ := testZNS(t, 12, 1)
	rng := sim.NewRNG(314)
	// One 64-byte payload, pre-encoded per zone attribute.
	var stored [2][]byte
	for _, a := range []Attr{Durable, Approximate} {
		var err error
		if stored[a], err = d.pol[a].Scheme.Encode(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 20000; op++ {
		z := rng.Intn(d.Zones())
		info, err := d.Info(z)
		if err != nil {
			t.Fatalf("op %d: info: %v", op, err)
		}
		switch rng.Intn(3) {
		case 0: // open
			err := d.Open(z, Attr(rng.Intn(2)))
			switch info.State {
			case ZoneEmpty:
				if err != nil {
					t.Fatalf("op %d: open empty zone: %v", op, err)
				}
			case ZoneOffline:
				if !errors.Is(err, ErrOffline) {
					t.Fatalf("op %d: open offline: %v", op, err)
				}
			default:
				if !errors.Is(err, ErrNotEmpty) {
					t.Fatalf("op %d: open %v zone: %v", op, info.State, err)
				}
			}
		case 1: // append
			p := stored[info.Attr]
			_, _, _, err := d.Append(z, p, len(p), 64, flash.PageTag{})
			switch {
			case info.State == ZoneOpen && info.WP < info.Capacity:
				// May legitimately fail only via hard program failure
				// (reported as ErrZoneFull).
				if err != nil && !errors.Is(err, ErrZoneFull) {
					t.Fatalf("op %d: append open: %v", op, err)
				}
			case info.State == ZoneOffline:
				if !errors.Is(err, ErrOffline) {
					t.Fatalf("op %d: append offline: %v", op, err)
				}
			default:
				if err == nil {
					t.Fatalf("op %d: append on %v zone succeeded", op, info.State)
				}
			}
		case 2: // reset
			err := d.Reset(z)
			if info.State == ZoneOffline {
				if !errors.Is(err, ErrOffline) {
					t.Fatalf("op %d: reset offline: %v", op, err)
				}
			} else if err != nil {
				t.Fatalf("op %d: reset: %v", op, err)
			}
		}
	}
}

func TestZoneStateStrings(t *testing.T) {
	if ZoneEmpty.String() != "empty" || ZoneOffline.String() != "offline" {
		t.Fatal("state names")
	}
	if Durable.String() != "durable" || Approximate.String() != "approximate" {
		t.Fatal("attr names")
	}
}
