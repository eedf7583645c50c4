package flash

import (
	"errors"
	"fmt"
	"testing"

	"sos/internal/sim"
)

// TestCachedWearMatchesModel pins the per-block wear cache to the model.
// For every technology and mode, native and pseudo, at endurance scales
// 0 (nominal), 0.37, 1 and 2.7, a block climbs an erase ladder to 1.5x
// the mode's rated PEC and, part-way up, switches to another mode and
// back with its wear carried. At each checkpoint Read's RBER and
// PageRBER must equal ErrorModel.RBER under ==, and Info's wear
// fraction must equal pec/(rated·scale). An Erase or SetMode that skips
// the refresh leaves a stale wear term and fails the next checkpoint.
func TestCachedWearMatchesModel(t *testing.T) {
	for _, tech := range AllTechs() {
		for bits := 1; bits <= tech.BitsPerCell(); bits++ {
			m, err := PseudoMode(tech, bits)
			if err != nil {
				t.Fatal(err)
			}
			// Native modes switch to the next pseudo-density down and
			// pseudo modes to native, so SetMode is covered both ways.
			// SLC has no pseudo mode; re-setting its own mode must still
			// carry the wear.
			other := NativeMode(tech)
			if !m.IsPseudo() && bits > 1 {
				other, _ = PseudoMode(tech, bits-1)
			}
			for _, scale := range []float64{0, 0.37, 1, 2.7} {
				t.Run(fmt.Sprintf("%v/scale=%g", m, scale), func(t *testing.T) {
					climbWearLadder(t, m, other, scale)
				})
			}
		}
	}
}

func climbWearLadder(t *testing.T, m, other Mode, scale float64) {
	const pageSize = 64
	clock := &sim.Clock{}
	c, err := NewChip(ChipConfig{
		Geometry: Geometry{PageSize: pageSize, PagesPerBlock: 10, Blocks: 1},
		Tech:     m.Phys,
		Clock:    clock,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.blocks[0] = newBlock(NativeMode(m.Phys), c.geo.PagesPerBlock, scale)
	if err := c.SetMode(0, m); err != nil {
		t.Fatal(err)
	}
	em := c.Model()
	nominal := scale
	if nominal <= 0 {
		nominal = 1
	}

	// Past the rating, programs and erases fail now and then; a failed
	// op changes no wear, so both simply retry.
	erase := func() {
		for {
			err := c.Erase(0)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrEraseFail) {
				t.Fatal(err)
			}
		}
	}
	// check programs page 0 at the block's current wear, ages it, reads
	// it twice and compares every RBER the chip reports with the model,
	// then erases the block, one more rung up the ladder.
	check := func(mode Mode) {
		t.Helper()
		pec := c.blocks[0].pec
		for {
			err := c.Program(0, 0, nil, pageSize)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrProgramFail) {
				t.Fatal(err)
			}
		}
		const age = 30 * sim.Day
		clock.Advance(age)
		for reads := 1; reads <= 2; reads++ {
			res, err := c.Read(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := em.RBER(mode, pec, age, reads, scale); res.RBER != want {
				t.Fatalf("%v pec %d read %d: Read RBER %v, model %v", mode, pec, reads, res.RBER, want)
			}
		}
		got, err := c.PageRBER(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := em.RBER(mode, pec, age, 2, scale); got != want {
			t.Fatalf("%v pec %d: PageRBER %v, model %v", mode, pec, got, want)
		}
		info, err := c.Info(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(pec) / (float64(mode.RatedPEC()) * nominal); info.Mode != mode || info.WearFrac != want {
			t.Fatalf("%v pec %d: Info reports %v at wear %v, want %v", mode, pec, info.Mode, info.WearFrac, want)
		}
		erase()
	}

	target := 3 * m.RatedPEC() / 2
	step := m.RatedPEC() / 8
	switchAt := m.RatedPEC() / 2
	if r := other.RatedPEC() / 2; r < switchAt {
		switchAt = r
	}
	for {
		pec := c.blocks[0].pec
		switch {
		case pec >= target:
			check(m)
			return
		case pec == switchAt:
			if err := c.SetMode(0, other); err != nil {
				t.Fatal(err)
			}
			check(other)
			if err := c.SetMode(0, m); err != nil {
				t.Fatal(err)
			}
			check(m)
		case pec <= 1 || pec%step == 0:
			check(m)
		default:
			erase()
		}
	}
}
