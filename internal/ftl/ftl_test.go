package ftl

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

// Stream ids used across tests.
const (
	sysStream   StreamID = 0
	spareStream StreamID = 1
)

func testFTL(t *testing.T, blocks int) (*FTL, *sim.Clock) {
	t.Helper()
	return testFTLGeo(t, flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: blocks})
}

func testFTLGeo(t *testing.T, geo flash.Geometry) (*FTL, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: geo,
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{
			{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{},
				Resuscitate: []int{3}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

func TestNewValidation(t *testing.T) {
	clock := &sim.Clock{}
	chip, _ := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 4, Blocks: 8},
		Tech:     flash.TLC,
		Clock:    clock,
	})
	cases := []Config{
		{Chip: nil, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.TLC), Scheme: ecc.None{}}}},
		{Chip: chip},
		{Chip: chip, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.TLC), Scheme: nil}}},
		{Chip: chip, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.QLC), Scheme: ecc.None{}}}},
		// Scheme overhead exceeding the spare area.
		{Chip: chip, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.TLC), Scheme: ecc.MustRSScheme(64, 32)}}},
		// Resuscitation not below operating density.
		{Chip: chip, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.TLC), Scheme: ecc.None{}, Resuscitate: []int{3}}}},
		// Bad over-provisioning.
		{Chip: chip, OverProvisionPct: 90, Streams: []StreamPolicy{{Mode: flash.NativeMode(flash.TLC), Scheme: ecc.None{}}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	f, _ := testFTL(t, 32)
	data := bytes.Repeat([]byte{0xcd}, 512)
	if err := f.Write(7, data, 0, sysStream); err != nil {
		t.Fatal(err)
	}
	res, err := f.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("roundtrip mismatch")
	}
	if res.Degraded {
		t.Fatal("fresh write degraded")
	}
	if res.Stream != sysStream {
		t.Fatalf("stream = %d", res.Stream)
	}
}

func TestWriteValidation(t *testing.T) {
	f, _ := testFTL(t, 32)
	if err := f.Write(0, nil, 0, sysStream); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("zero-length write: %v", err)
	}
	if err := f.Write(0, make([]byte, 513), 0, sysStream); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversize write: %v", err)
	}
	if err := f.Write(0, make([]byte, 8), 0, StreamID(9)); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("unknown stream: %v", err)
	}
}

func TestReadUnknownLPA(t *testing.T) {
	f, _ := testFTL(t, 32)
	if _, err := f.Read(99); !errors.Is(err, ErrUnknownLPA) {
		t.Fatalf("unknown lpa: %v", err)
	}
}

func TestOverwriteSupersedes(t *testing.T) {
	f, _ := testFTL(t, 32)
	a := bytes.Repeat([]byte{1}, 100)
	b := bytes.Repeat([]byte{2}, 100)
	if err := f.Write(5, a, 0, sysStream); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(5, b, 0, sysStream); err != nil {
		t.Fatal(err)
	}
	res, err := f.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, b) {
		t.Fatal("overwrite did not supersede")
	}
	if f.MappedPages() != 1 {
		t.Fatalf("mapped pages = %d", f.MappedPages())
	}
}

func TestTrim(t *testing.T) {
	f, _ := testFTL(t, 32)
	if err := f.Trim(3); !errors.Is(err, ErrUnknownLPA) {
		t.Fatalf("trim unmapped: %v", err)
	}
	if err := f.Write(3, make([]byte, 64), 0, spareStream); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if f.Contains(3) {
		t.Fatal("lpa still mapped after trim")
	}
	if _, err := f.Read(3); !errors.Is(err, ErrUnknownLPA) {
		t.Fatal("trimmed lpa readable")
	}
}

func TestAccountingWrites(t *testing.T) {
	f, _ := testFTL(t, 32)
	if err := f.Write(11, nil, 400, spareStream); err != nil {
		t.Fatal(err)
	}
	res, err := f.Read(11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil {
		t.Fatal("accounting read returned data")
	}
	if res.DataLen != 400 {
		t.Fatalf("DataLen = %d", res.DataLen)
	}
	if res.Degraded {
		t.Fatal("fresh accounting page degraded")
	}
}

func TestGCReclaimsStaleCapacity(t *testing.T) {
	// 16 blocks x 8 pages (PLC native for spare). Overwrite the same
	// small working set far beyond raw capacity: GC must keep up.
	f, _ := testFTL(t, 16)
	data := make([]byte, 256)
	for i := 0; i < 600; i++ {
		lpa := int64(i % 10)
		if err := f.Write(lpa, data, 0, spareStream); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if st.MappedPages != 10 {
		t.Fatalf("mapped pages = %d, want 10", st.MappedPages)
	}
	if wa := f.WriteAmplification(); wa < 1 {
		t.Fatalf("write amplification %v < 1", wa)
	}
}

func TestGCPreservesData(t *testing.T) {
	// Fill a working set with distinct payloads, churn another range to
	// force GC, then verify every page content survived.
	f, _ := testFTL(t, 16)
	payload := func(lpa int64) []byte {
		b := make([]byte, 128)
		for i := range b {
			b[i] = byte(lpa*31 + int64(i))
		}
		return b
	}
	// Fill most of the device with live data (16 blocks x 8 pQLC pages
	// = 128 raw pages; keep ~90 live), then repeatedly rewrite a strided
	// subset. Every GC victim then holds mostly-live pages, so reclaim
	// must relocate them.
	for lpa := int64(0); lpa < 90; lpa++ {
		if err := f.Write(lpa, payload(lpa), 0, sysStream); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		lpa := int64((i * 8) % 88)
		if err := f.Write(lpa, payload(lpa), 0, sysStream); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	if f.Stats().GCMoves == 0 {
		t.Fatal("GC moved nothing; test is not exercising relocation")
	}
	for lpa := int64(0); lpa < 90; lpa++ {
		res, err := f.Read(lpa)
		if err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
		if !bytes.Equal(res.Data, payload(lpa)) {
			t.Fatalf("lpa %d corrupted after GC", lpa)
		}
	}
}

func TestOutOfSpace(t *testing.T) {
	f, _ := testFTL(t, 8)
	data := make([]byte, 256)
	var err error
	for i := 0; i < 200; i++ {
		// Distinct LPAs: nothing is stale, GC can reclaim nothing.
		err = f.Write(int64(i), data, 0, spareStream)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling the device returned %v, want ErrNoSpace", err)
	}
}

func TestStreamSeparation(t *testing.T) {
	f, _ := testFTL(t, 32)
	if err := f.Write(1, make([]byte, 64), 0, sysStream); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(2, make([]byte, 64), 0, spareStream); err != nil {
		t.Fatal(err)
	}
	chip := f.Chip()
	// The two streams' active blocks must differ and carry their modes.
	var sysBlock, spareBlock = -1, -1
	for b := 0; b < chip.Blocks(); b++ {
		info, _ := chip.Info(b)
		if info.NextPage > 0 {
			if info.Mode.IsPseudo() {
				sysBlock = b
			} else {
				spareBlock = b
			}
		}
	}
	if sysBlock < 0 || spareBlock < 0 || sysBlock == spareBlock {
		t.Fatalf("streams not separated: sys=%d spare=%d", sysBlock, spareBlock)
	}
}

func TestRelocateAcrossStreams(t *testing.T) {
	f, _ := testFTL(t, 32)
	data := bytes.Repeat([]byte{0x77}, 200)
	if err := f.Write(42, data, 0, sysStream); err != nil {
		t.Fatal(err)
	}
	if err := f.Relocate(42, spareStream); err != nil {
		t.Fatal(err)
	}
	id, ok := f.StreamOf(42)
	if !ok || id != spareStream {
		t.Fatalf("stream after relocate = %d, %v", id, ok)
	}
	res, err := f.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("relocation corrupted data")
	}
	if err := f.Relocate(42, StreamID(7)); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("relocate to bad stream: %v", err)
	}
	if err := f.Relocate(999, spareStream); !errors.Is(err, ErrUnknownLPA) {
		t.Fatalf("relocate unknown lpa: %v", err)
	}
}

func TestWearLevelingSpreadsWear(t *testing.T) {
	// Write-heavy churn on the wear-leveled sys stream: block PEC
	// variance should stay low relative to a no-WL run on spare.
	variance := func(stream StreamID) float64 {
		f, _ := testFTL(t, 16)
		data := make([]byte, 256)
		for i := 0; i < 3000; i++ {
			if err := f.Write(int64(i%12), data, 0, stream); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		chip := f.Chip()
		var sum, sumSq float64
		n := 0
		for b := 0; b < chip.Blocks(); b++ {
			info, _ := chip.Info(b)
			pec := float64(info.PEC)
			sum += pec
			sumSq += pec * pec
			n++
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	wl := variance(sysStream)
	noWL := variance(spareStream)
	if wl >= noWL {
		t.Fatalf("wear leveling variance %.2f not below no-WL variance %.2f", wl, noWL)
	}
}

func TestDegradedReadOnWornSpare(t *testing.T) {
	f, clock := testFTL(t, 16)
	chip := f.Chip()
	// Pre-wear every block close to PLC EOL.
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < flash.PLC.RatedPEC()-1; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	data := bytes.Repeat([]byte{0xee}, 512)
	if err := f.Write(1, data, 0, spareStream); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * sim.Year)
	res, err := f.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("worn PLC + 2y retention read back clean through DetectOnly")
	}
	if res.Data == nil {
		t.Fatal("degraded read returned no data (approximate semantics broken)")
	}
	if f.Stats().DegradedReads == 0 {
		t.Fatal("degraded read not counted")
	}
}

func TestSysSurvivesWhereSpareDegrades(t *testing.T) {
	// The central SOS contract: same medium, same age — RS-protected
	// SYS data reads back clean while unprotected SPARE data degrades.
	f, clock := testFTL(t, 16)
	chip := f.Chip()
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < 300; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	data := bytes.Repeat([]byte{0xaa}, 512)
	if err := f.Write(1, data, 0, sysStream); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(2, data, 0, spareStream); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * sim.Year)
	sys, err := f.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := f.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Degraded {
		t.Fatalf("SYS degraded (corrected=%d flips=%d)", sys.Corrected, sys.RawFlips)
	}
	if !bytes.Equal(sys.Data, data) {
		t.Fatal("SYS data corrupted")
	}
	if !spare.Degraded {
		t.Fatal("SPARE did not degrade under the same conditions")
	}
}

func TestScrubRelocatesHotPages(t *testing.T) {
	f, clock := testFTL(t, 16)
	chip := f.Chip()
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < 350; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	data := bytes.Repeat([]byte{0x3c}, 512)
	for lpa := int64(0); lpa < 5; lpa++ {
		if err := f.Write(lpa, data, 0, spareStream); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(3 * sim.Year)
	rep, err := f.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesChecked < 5 {
		t.Fatalf("scrub checked %d pages", rep.PagesChecked)
	}
	if rep.PagesRelocated == 0 {
		t.Fatal("scrub relocated nothing despite extreme RBER")
	}
	// All pages still mapped and readable.
	for lpa := int64(0); lpa < 5; lpa++ {
		if _, err := f.Read(lpa); err != nil {
			t.Fatalf("lpa %d unreadable after scrub: %v", lpa, err)
		}
	}
}

func TestScrubBudget(t *testing.T) {
	f, clock := testFTL(t, 16)
	chip := f.Chip()
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < 350; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for lpa := int64(0); lpa < 6; lpa++ {
		if err := f.Write(lpa, make([]byte, 64), 0, spareStream); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(3 * sim.Year)
	rep, err := f.Scrub(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesRelocated > 2 {
		t.Fatalf("scrub ignored budget: %d moves", rep.PagesRelocated)
	}
}

func TestCapacityVarianceOnRetirement(t *testing.T) {
	// Torture the spare stream until blocks wear out; with the
	// resuscitation ladder [3], capacity must first shrink by the
	// pTLC/PLC ratio rather than dropping to zero, and the capacity
	// callback must fire.
	f, _ := testFTL(t, 8)
	initial := f.UsablePages()
	var notices []int
	f.SetCapacityCallback(func(p int) { notices = append(notices, p) })

	data := make([]byte, 64)
	// PLC rated 400; 8 blocks x 10 pages: ~64 usable pages/cycle.
	// 400 cycles x 8 blocks x 8 pages of writes to wear everything out.
	for i := 0; i < 400*8*10; i++ {
		err := f.Write(int64(i%20), data, 0, spareStream)
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.Resuscitated == 0 {
		t.Fatal("no block was resuscitated")
	}
	if len(notices) == 0 {
		t.Fatal("capacity change callback never fired")
	}
	if f.UsablePages() >= initial {
		t.Fatalf("capacity did not shrink: %d -> %d", initial, f.UsablePages())
	}
}

func TestUsablePagesAccountsModes(t *testing.T) {
	f, _ := testFTL(t, 32)
	// Fresh device: all blocks native PLC (10 pages), minus reserve.
	got := f.UsablePages()
	want := 32*10 - (32*7/100)*10
	if got != want {
		t.Fatalf("UsablePages = %d, want %d", got, want)
	}
}

func TestLogicalPageSize(t *testing.T) {
	f, _ := testFTL(t, 8)
	if f.LogicalPageSize() != 512 {
		t.Fatalf("logical page size %d", f.LogicalPageSize())
	}
}

func TestStatsShape(t *testing.T) {
	f, _ := testFTL(t, 16)
	_ = f.Write(1, make([]byte, 64), 0, sysStream)
	st := f.Stats()
	if st.HostWrites != 1 || st.FlashPrograms != 1 || st.MappedPages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FreeBlocks <= 0 {
		t.Fatal("no free blocks reported")
	}
}

// TestL2PInvariant is a property test: after an arbitrary operation
// sequence, the L2P and P2L maps are exact inverses and block valid
// counts match the number of live pages per block.
func TestL2PInvariant(t *testing.T) {
	rng := sim.NewRNG(77)
	f, _ := testFTL(t, 16)
	for op := 0; op < 2000; op++ {
		lpa := int64(rng.Intn(30))
		switch rng.Intn(4) {
		case 0, 1:
			stream := StreamID(rng.Intn(2))
			err := f.Write(lpa, nil, 64+rng.Intn(400), stream)
			if err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatalf("op %d write: %v", op, err)
			}
		case 2:
			_ = f.Trim(lpa)
		case 3:
			_, _ = f.Read(lpa)
		}
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants delegates to the exported checker (invariants.go),
// which the crash-torture harness shares.
func checkInvariants(f *FTL) error { return CheckInvariants(f) }

// TestInvariantsCatchStaleWear tampers with an in-use block's
// allocation snapshot: a PEC, then a page count, then a wear fraction
// that disagree with the chip must each fail CheckInvariants, and the
// restored snapshot must pass.
func TestInvariantsCatchStaleWear(t *testing.T) {
	f, _ := testFTL(t, 16)
	if err := f.Write(1, bytes.Repeat([]byte{1}, 64), 0, sysStream); err != nil {
		t.Fatal(err)
	}
	m, _ := f.Lookup(1)
	snap := &f.blocks[m.Unit].info
	orig := *snap
	for _, row := range []struct {
		name   string
		tamper func()
	}{
		{"pec", func() { snap.PEC++ }},
		{"pages", func() { snap.Pages-- }},
		{"wear", func() { snap.WearFrac += 0.01 }},
	} {
		row.tamper()
		if err := CheckInvariants(f); err == nil || !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("stale %s: got %v", row.name, err)
		}
		*snap = orig
		if err := CheckInvariants(f); err != nil {
			t.Fatalf("restored %s rejected: %v", row.name, err)
		}
	}
}

// TestAllocationReadsFreeWearFromChip pins why only allocated blocks
// keep a wear snapshot: callers wear free blocks of a live FTL through
// Chip(), so the min-wear allocation must read the free pool from the
// chip. The free block the scan would take next is erased through the
// chip, and the next allocation must pass it over.
func TestAllocationReadsFreeWearFromChip(t *testing.T) {
	f, _ := testFTL(t, 16)
	if err := f.Write(0, nil, 64, sysStream); err != nil {
		t.Fatal(err)
	}
	slot := storage.ActiveSlot(sysStream, storage.HintNone)
	first := f.Active[slot]
	// Every free block is unworn, so the scan takes the pool's first.
	worn := f.freePool[0]
	for i := 0; i < 3; i++ {
		if err := f.Chip().Erase(worn); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(1); f.Active[slot] == first; lpa++ {
		if err := f.Write(lpa, nil, 64, sysStream); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Active[slot]; got == worn {
		t.Fatalf("allocated block %d, erased 3 times through the chip, over unworn free blocks", got)
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterScrubAndGC(t *testing.T) {
	rng := sim.NewRNG(88)
	f, clock := testFTL(t, 16)
	for round := 0; round < 10; round++ {
		for i := 0; i < 150; i++ {
			lpa := int64(rng.Intn(25))
			err := f.Write(lpa, nil, 128, StreamID(rng.Intn(2)))
			if err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
		}
		clock.Advance(100 * sim.Day)
		if _, err := f.Scrub(0); err != nil {
			t.Fatalf("scrub round %d: %v", round, err)
		}
		if err := checkInvariants(f); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
