package zns

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// testStreams is the SOS split: durable SYS (pseudo-QLC + RS), spare
// approximate (native PLC + DetectOnly).
func testStreams(t *testing.T) []storage.StreamPolicy {
	t.Helper()
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []storage.StreamPolicy{
		{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
		{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}},
	}
}

func testBackend(t *testing.T, blocks, perZone int) (*Backend, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: blocks},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(BackendConfig{
		Chip:          chip,
		Streams:       testStreams(t),
		BlocksPerZone: perZone,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, clock
}

func TestBackendValidation(t *testing.T) {
	if _, err := NewBackend(BackendConfig{}); err == nil {
		t.Fatal("nil chip accepted")
	}
	clock := &sim.Clock{}
	chip, _ := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 8},
		Tech:     flash.PLC, Clock: clock,
	})
	if _, err := NewBackend(BackendConfig{Chip: chip}); err == nil {
		t.Fatal("zero streams accepted")
	}
	// Two durable streams with different schemes: one zone policy per
	// attribute.
	bad := []storage.StreamPolicy{
		{Name: "a", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.MustRSScheme(223, 32)},
		{Name: "b", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.HammingScheme{}},
	}
	if _, err := NewBackend(BackendConfig{Chip: chip, Streams: bad}); err == nil {
		t.Fatal("conflicting durable policies accepted")
	}
	// A GC low water leaving no writable zones.
	if _, err := NewBackend(BackendConfig{
		Chip: chip, Streams: testStreams(t), BlocksPerZone: 2, GCLowWater: 4,
	}); err == nil {
		t.Fatal("low water >= zones accepted")
	}
}

func TestBackendRoundtrip(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	if b.Name() != "zns" {
		t.Fatalf("name %q", b.Name())
	}
	payload := bytes.Repeat([]byte{0xab}, 400)
	if err := b.Write(1, payload, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(2, nil, 300, 1); err != nil {
		t.Fatal(err)
	}
	res, err := b.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) || res.Degraded {
		t.Fatalf("durable readback: degraded=%v len=%d", res.Degraded, len(res.Data))
	}
	res, err = b.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil || res.DataLen != 300 {
		t.Fatalf("accounting readback: %+v", res)
	}
	if st, ok := b.StreamOf(2); !ok || st != 1 {
		t.Fatalf("StreamOf: %v %v", st, ok)
	}
	if _, _, _, ok := b.Locate(1); !ok {
		t.Fatal("Locate failed for mapped lpa")
	}
	// Errors.
	if _, err := b.Read(99); !errors.Is(err, storage.ErrUnknownLPA) {
		t.Fatalf("unknown read: %v", err)
	}
	if err := b.Write(3, nil, 0, 0); !errors.Is(err, storage.ErrPayloadSize) {
		t.Fatalf("zero-length write: %v", err)
	}
	if err := b.Write(3, nil, 513, 0); !errors.Is(err, storage.ErrPayloadSize) {
		t.Fatalf("oversize write: %v", err)
	}
	if err := b.Write(3, payload, 0, 7); !errors.Is(err, storage.ErrUnknownStream) {
		t.Fatalf("unknown stream: %v", err)
	}
	// Trim.
	if err := b.Trim(1); err != nil {
		t.Fatal(err)
	}
	if b.Contains(1) {
		t.Fatal("trimmed lpa still mapped")
	}
	if err := b.Trim(1); !errors.Is(err, storage.ErrUnknownLPA) {
		t.Fatalf("double trim: %v", err)
	}
	if b.MappedPages() != 1 {
		t.Fatalf("mapped %d", b.MappedPages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendGC overwrites a small working set until reclamation must
// run; mappings survive and write amplification reflects the moves.
func TestBackendGC(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	want := make(map[int64][]byte)
	for i := 0; i < 400; i++ {
		lpa := int64(i % 7)
		p := bytes.Repeat([]byte{byte(i)}, 64)
		if err := b.Write(lpa, p, 0, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want[lpa] = p
	}
	if b.Stats().GCRuns == 0 {
		t.Fatal("workload never triggered reclamation")
	}
	for lpa, p := range want {
		res, err := b.Read(lpa)
		if err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
		if !bytes.Equal(res.Data, p) {
			t.Fatalf("lpa %d corrupted after GC", lpa)
		}
	}
	if wa := b.WriteAmplification(); wa < 1 {
		t.Fatalf("WA %f < 1 after GC", wa)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendQuarantineOfflinesZone condemns a zone and checks the
// offline transition: live data drained, capacity shrinks, callback
// fires, and the invariant checker accepts the result.
func TestBackendQuarantineOfflinesZone(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	payload := bytes.Repeat([]byte{0x44}, 64)
	for i := int64(0); i < 6; i++ {
		if err := b.Write(i, payload, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := b.Lookup(0)
	if !ok {
		t.Fatal("lpa 0 unmapped")
	}
	victim := m.Unit
	blk := b.dev.zones[victim].blocks[0]
	before := b.UsablePages()
	var notified int
	b.SetCapacityCallback(func(p int) { notified = p })
	if err := b.Quarantine(blk); err != nil {
		t.Fatal(err)
	}
	// Force the drain: condemned zones are preferred victims. RunGC is
	// no public operation, so deliver the deferred capacity notification
	// by hand.
	b.RunGC(1)
	b.FlushCapacity()
	if b.dev.zones[victim].state != ZoneOffline {
		t.Fatalf("condemned zone state %v", b.dev.zones[victim].state)
	}
	after := b.UsablePages()
	if after >= before {
		t.Fatalf("capacity did not shrink: %d -> %d", before, after)
	}
	if notified != after {
		t.Fatalf("callback saw %d, UsablePages says %d", notified, after)
	}
	// All data still readable from its relocated homes.
	for i := int64(0); i < 6; i++ {
		res, err := b.Read(i)
		if err != nil {
			t.Fatalf("read %d after offline: %v", i, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("lpa %d corrupted by quarantine drain", i)
		}
	}
	if b.Stats().Retired != int64(b.dev.perZone) {
		t.Fatalf("retired blocks %d, want %d", b.Stats().Retired, b.dev.perZone)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendQuarantineEmptyZoneSkipsErase condemns a zone that holds
// nothing: it goes offline without an erase (every block's PEC stays
// 0), capacity shrinks and the callback sees it, and a remount keeps
// the zone offline.
func TestBackendQuarantineEmptyZoneSkipsErase(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	const victim = 5
	zn := &b.dev.zones[victim]
	if zn.state != ZoneEmpty {
		t.Fatalf("zone %d starts %v, want empty", victim, zn.state)
	}
	before := b.UsablePages()
	var notified int
	b.SetCapacityCallback(func(p int) { notified = p })
	if err := b.Quarantine(zn.blocks[0]); err != nil {
		t.Fatal(err)
	}
	for _, blk := range zn.blocks {
		info, err := b.chip.Info(blk)
		if err != nil {
			t.Fatal(err)
		}
		if info.PEC != 0 {
			t.Fatalf("block %d of the empty condemned zone: PEC %d, want 0", blk, info.PEC)
		}
		if !info.Retired {
			t.Fatalf("block %d of the offline zone is not retired", blk)
		}
	}
	if zn.state != ZoneOffline {
		t.Fatalf("condemned empty zone state %v, want offline", zn.state)
	}
	after := b.UsablePages()
	if after >= before {
		t.Fatalf("capacity did not shrink: %d -> %d", before, after)
	}
	if notified != after {
		t.Fatalf("callback saw %d, UsablePages says %d", notified, after)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nb, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st := nb.(*Backend).dev.zones[victim].state; st != ZoneOffline {
		t.Fatalf("zone %d after recovery: %v, want offline", victim, st)
	}
	if err := nb.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
}

// TestBackendRecover remounts after a clean stop and checks every
// mapping survives with identical content and stream assignment.
func TestBackendRecover(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	want := make(map[int64][]byte)
	for i := 0; i < 120; i++ {
		lpa := int64(i % 11)
		st := storage.StreamID(i % 2)
		p := bytes.Repeat([]byte{byte(i + 1)}, 128)
		if err := b.Write(lpa, p, 0, st); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want[lpa] = p
	}
	if err := b.Trim(3); err != nil {
		t.Fatal(err)
	}
	delete(want, 3)

	nb, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	if nb.MappedPages() < len(want) {
		t.Fatalf("recovered %d mappings, want at least %d", nb.MappedPages(), len(want))
	}
	for lpa, p := range want {
		res, err := nb.Read(lpa)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", lpa, err)
		}
		if !bytes.Equal(res.Data, p) {
			t.Fatalf("lpa %d corrupted across recovery", lpa)
		}
		ws, _ := b.StreamOf(lpa)
		rs, ok := nb.StreamOf(lpa)
		if !ok || rs != ws {
			t.Fatalf("lpa %d stream %v -> %v across recovery", lpa, ws, rs)
		}
	}
	// Recovery must keep accepting writes without serial collisions.
	if err := nb.Write(50, bytes.Repeat([]byte{9}, 32), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := nb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendRecoverAfterOffline checks that offline zones survive a
// remount: the retired-block marker is durable.
func TestBackendRecoverAfterOffline(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	if err := b.Write(1, bytes.Repeat([]byte{1}, 64), 0, 1); err != nil {
		t.Fatal(err)
	}
	m, _ := b.Lookup(1)
	if err := b.Quarantine(b.dev.zones[m.Unit].blocks[0]); err != nil {
		t.Fatal(err)
	}
	b.RunGC(1)
	if b.dev.zones[m.Unit].state != ZoneOffline {
		t.Fatalf("zone not offline: %v", b.dev.zones[m.Unit].state)
	}
	nb, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	znb := nb.(*Backend)
	if znb.dev.zones[m.Unit].state != ZoneOffline {
		t.Fatalf("offline zone resurrected as %v", znb.dev.zones[m.Unit].state)
	}
	if znb.UsablePages() != b.UsablePages() {
		t.Fatalf("capacity changed across recovery: %d -> %d", b.UsablePages(), znb.UsablePages())
	}
	if err := znb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsCatchCorruption sanity-checks the checker itself.
func TestInvariantsCatchCorruption(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	if err := b.Write(1, bytes.Repeat([]byte{1}, 64), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("clean backend rejected: %v", err)
	}
	m, _ := b.Lookup(1)
	b.Units[m.Unit].Live++ // desync live count
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("live-count desync undetected")
	}
	b.Units[m.Unit].Live--
	b.P2L[b.PageIndex(m.Unit, m.Index)] = -1 // break the inverse
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("p2l hole undetected")
	}
}

// TestInvariantsCatchStaleLayout tampers with an open zone's cached
// layout: a block page count, then a capacity, that disagree with the
// chip must each fail CheckInvariants.
func TestInvariantsCatchStaleLayout(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	if err := b.Write(1, bytes.Repeat([]byte{1}, 64), 0, 0); err != nil {
		t.Fatal(err)
	}
	m, _ := b.Lookup(1)
	zn := &b.dev.zones[m.Unit]
	if zn.state != ZoneOpen {
		t.Fatalf("written zone is %v, want open", zn.state)
	}
	zn.pages[1]++
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "caches") {
		t.Fatalf("stale block page count: got %v", err)
	}
	zn.pages[1]--
	zn.capacity--
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "caches capacity") {
		t.Fatalf("stale capacity: got %v", err)
	}
	zn.capacity++
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restored layout rejected: %v", err)
	}
}

// TestInvariantsCatchMappingBeyondWP moves one LPA's mapping to the page
// at its zone's write pointer, one past the last programmed page, and
// clears the old P2L slot, so the inverse and live-count checks still
// pass and only the write-pointer check can object.
func TestInvariantsCatchMappingBeyondWP(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	for lpa := int64(1); lpa <= 3; lpa++ {
		if err := b.Write(lpa, bytes.Repeat([]byte{byte(lpa)}, 64), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := b.Lookup(3)
	zn := &b.dev.zones[m.Unit]
	if zn.state != ZoneOpen || zn.wp != 3 {
		t.Fatalf("written zone is %v with wp %d, want open with wp 3", zn.state, zn.wp)
	}
	moved := m
	moved.Index = zn.wp
	b.SetMapping(3, moved)
	b.P2L[b.PageIndex(m.Unit, m.Index)] = -1
	if err := b.CheckMapping(); err != nil {
		t.Fatalf("moved mapping fails the mapping checks first: %v", err)
	}
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "beyond wp") {
		t.Fatalf("mapping at the write pointer: got %v", err)
	}
	b.SetMapping(3, m)
	b.P2L[b.PageIndex(moved.Unit, moved.Index)] = -1
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restored mapping rejected: %v", err)
	}
}
