package device

import (
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// scrubBlocksPerZone sizes the zoned backend's erase unit in the scrub
// tests, so a drained zone frees more than one erase block.
const scrubBlocksPerZone = 2

// wornScrubBackend builds the SOS split over a 32-block PLC chip whose
// blocks are pre-worn to 350 of their 400 rated cycles, and fills four
// erase blocks' worth of SPARE pages (four ftl blocks, two zones) plus
// sysPages SYS pages. Aging the clock then pushes the SPARE pages past
// the scrub threshold.
func wornScrubBackend(t *testing.T, kind storage.Kind, sysPages int) (storage.Backend, *flash.Chip, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 16, Blocks: 32},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < 350; i++ {
			if err := chip.Erase(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	streams := []storage.StreamPolicy{
		{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
		{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}, WearRetireFrac: 1.15},
	}
	be, err := NewBackend(BackendConfig{Kind: kind, Medium: chip, Streams: streams, BlocksPerZone: scrubBlocksPerZone})
	if err != nil {
		t.Fatal(err)
	}
	for lpa := int64(0); lpa < 64; lpa++ {
		if err := be.Write(lpa, payload(512, int(lpa)), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(64); lpa < int64(64+sysPages); lpa++ {
		if err := be.Write(lpa, payload(512, int(lpa)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return be, chip, clock
}

// blockPECs snapshots every block's program/erase count.
func blockPECs(t *testing.T, chip *flash.Chip) []int {
	t.Helper()
	pecs := make([]int, chip.Blocks())
	for b := range pecs {
		info, err := chip.Info(b)
		if err != nil {
			t.Fatal(err)
		}
		pecs[b] = info.PEC
	}
	return pecs
}

// TestScrubRelocatesAndFreesUnits runs the degradation monitor on both
// backends over worn PLC aged three years: a budgeted pass relocates
// exactly its budget, and an unbudgeted pass drains whole erase units
// and resets them, counting BlocksFreed in erase blocks — for zns,
// every block of each reset zone. Every page stays readable and the
// invariants hold.
func TestScrubRelocatesAndFreesUnits(t *testing.T) {
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			be, chip, clock := wornScrubBackend(t, kind, 6)
			clock.Advance(3 * sim.Year)

			rep, err := be.Scrub(5)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PagesRelocated != 5 {
				t.Fatalf("budgeted pass relocated %d pages, want its budget of 5", rep.PagesRelocated)
			}
			if rep.PagesChecked < 5 || rep.PagesChecked > 70 {
				t.Fatalf("budgeted pass checked %d pages", rep.PagesChecked)
			}

			before := blockPECs(t, chip)
			rep, err = be.Scrub(0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PagesChecked != 70 {
				t.Fatalf("pass checked %d pages, want 70", rep.PagesChecked)
			}
			if rep.PagesRelocated < 32 {
				t.Fatalf("pass relocated %d pages, want every aged SPARE page of at least one unit", rep.PagesRelocated)
			}
			// A scrub pass issues no other erases: the blocks it erased
			// are exactly those of the units it drained and reset.
			erased := 0
			for b, pec := range blockPECs(t, chip) {
				if pec > before[b] {
					erased++
				}
			}
			unit := 1
			if kind == storage.KindZNS {
				unit = scrubBlocksPerZone
			}
			if rep.BlocksFreed < unit || rep.BlocksFreed%unit != 0 {
				t.Fatalf("pass freed %d blocks, want a positive multiple of %d", rep.BlocksFreed, unit)
			}
			if rep.BlocksFreed != erased {
				t.Fatalf("pass reports %d blocks freed, the chip erased %d", rep.BlocksFreed, erased)
			}
			for lpa := int64(0); lpa < 70; lpa++ {
				if _, err := be.Read(lpa); err != nil {
					t.Fatalf("lpa %d unreadable after scrub: %v", lpa, err)
				}
			}
			if err := be.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScrubZeroAlloc pins the degradation monitor to the zero-alloc
// contract: with the chip's page-buffer pools filled, a scrub pass that
// relocates every aged SPARE page and resets the units it drains
// allocates nothing, on either backend.
func TestScrubZeroAlloc(t *testing.T) {
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			// SPARE pages only: correcting a flipped SYS codeword takes
			// Reed–Solomon's allocating error path by design (DESIGN.md §9).
			be, chip, clock := wornScrubBackend(t, kind, 0)
			fillPools(chip, 128)
			pass := func() {
				clock.Advance(sim.Year)
				rep, err := be.Scrub(0)
				if err != nil {
					t.Fatal(err)
				}
				if rep.PagesRelocated == 0 || rep.BlocksFreed == 0 {
					t.Fatalf("pass relocated %d pages and freed %d blocks; want both", rep.PagesRelocated, rep.BlocksFreed)
				}
			}
			pass()
			if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
				t.Errorf("%s scrub pass allocates %.2f times, want 0", kind, allocs)
			}
		})
	}
}
