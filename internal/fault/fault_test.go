package fault

import (
	"errors"
	"fmt"
	"testing"

	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

func newChip(t *testing.T, seed uint64) *flash.Chip {
	t.Helper()
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 16},
		Tech:     flash.PLC,
		Clock:    &sim.Clock{},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func pagePayload(b, p int) []byte {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(b*31 + p*7 + i)
	}
	return data
}

// TestTransparentPlan verifies that a zero-value plan is byte-identical
// to the bare chip: same data, same chip stats, no injected faults.
func TestTransparentPlan(t *testing.T) {
	bare := newChip(t, 7)
	wrapped := newChip(t, 7)
	inj := New(wrapped, Plan{})

	run := func(m storage.Flash) {
		for b := 0; b < 4; b++ {
			for p := 0; p < 8; p++ {
				if err := m.ProgramTagged(b, p, pagePayload(b, p), 64, flash.PageTag{}); err != nil {
					t.Fatalf("program %d/%d: %v", b, p, err)
				}
			}
		}
		for b := 0; b < 4; b++ {
			for p := 0; p < 8; p++ {
				if _, err := m.Read(b, p); err != nil {
					t.Fatalf("read %d/%d: %v", b, p, err)
				}
			}
		}
		if err := m.Erase(2); err != nil {
			t.Fatalf("erase: %v", err)
		}
	}
	run(bare)
	run(inj)

	if bare.Stats() != inj.Stats() {
		t.Fatalf("chip stats diverged:\nbare:    %+v\nwrapped: %+v", bare.Stats(), inj.Stats())
	}
	fs := inj.FaultStats()
	if fs.Injected() != 0 || fs.PowerCuts != 0 {
		t.Fatalf("transparent plan injected faults: %+v", fs)
	}
	if fs.Ops != 4*8+4*8+1 {
		t.Fatalf("op count = %d, want %d", fs.Ops, 4*8+4*8+1)
	}
	for b := 0; b < 4; b++ {
		if b == 2 {
			continue
		}
		for p := 0; p < 8; p++ {
			rb, err1 := bare.Read(b, p)
			rw, err2 := inj.Read(b, p)
			if err1 != nil || err2 != nil {
				t.Fatalf("verify read %d/%d: %v / %v", b, p, err1, err2)
			}
			if string(rb.Data) != string(rw.Data) {
				t.Fatalf("page %d/%d content diverged", b, p)
			}
		}
	}
}

// TestProbabilisticDeterminism verifies that the same seed yields the
// same fault sequence, and different seeds a different one.
func TestProbabilisticDeterminism(t *testing.T) {
	trace := func(seed uint64) string {
		inj := New(newChip(t, 3), Plan{Seed: seed, ReadFaultProb: 0.3})
		for b := 0; b < 2; b++ {
			for p := 0; p < 8; p++ {
				if err := inj.ProgramTagged(b, p, pagePayload(b, p), 64, flash.PageTag{}); err != nil {
					t.Fatalf("program: %v", err)
				}
			}
		}
		out := ""
		for i := 0; i < 64; i++ {
			_, err := inj.Read(i%2, (i/2)%8)
			if err != nil {
				if !errors.Is(err, flash.ErrReadFault) {
					t.Fatalf("injected fault not ErrReadFault: %v", err)
				}
				out += "F"
			} else {
				out += "."
			}
		}
		return out
	}
	a, b, c := trace(11), trace(11), trace(12)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical fault trace %q", a)
	}
	if a == "................................................................" {
		t.Fatalf("prob 0.3 over 64 reads injected nothing")
	}
}

// TestWindows verifies op-indexed fault windows for all three op kinds.
func TestWindows(t *testing.T) {
	inj := New(newChip(t, 5), Plan{
		ProgramFailWindow: Window{From: 3, To: 5}, // ops 3,4
		ReadFaultWindow:   Window{From: 9, To: 10},
		EraseFailWindow:   Window{From: 12, To: 13},
	})
	var got []string
	record := func(kind string, err error) {
		if err != nil {
			got = append(got, fmt.Sprintf("%s@%d", kind, inj.Ops()))
		}
	}
	// Each program targets a fresh block's page 0: an injected fail must
	// not desynchronize the next op from the chip's program cursor.
	for b := 0; b < 6; b++ { // ops 1..6
		record("P", inj.ProgramTagged(b, 0, pagePayload(b, 0), 64, flash.PageTag{}))
	}
	for i := 0; i < 5; i++ { // ops 7..11
		_, err := inj.Read(0, 0)
		record("R", err)
	}
	record("E", inj.Erase(1)) // op 12
	record("E", inj.Erase(1)) // op 13

	want := "[P@3 P@4 R@9 E@12]"
	if fmt.Sprint(got) != want {
		t.Fatalf("fault schedule = %v, want %s", got, want)
	}
	fs := inj.FaultStats()
	if fs.InjectedProgramFails != 2 || fs.InjectedReadFaults != 1 || fs.InjectedEraseFails != 1 {
		t.Fatalf("stats %+v, want 2/1/1", fs)
	}
	// Window-injected program fails must wrap the chip's sentinel so the
	// FTL's seal-and-redirect logic sees them as ordinary media errors.
	if err := New(newChip(t, 5), Plan{ProgramFailWindow: Window{From: 1, To: 2}}).ProgramTagged(0, 0, pagePayload(0, 0), 64, flash.PageTag{}); !errors.Is(err, flash.ErrProgramFail) {
		t.Fatalf("injected program fail = %v, want ErrProgramFail", err)
	}
	if err := New(newChip(t, 5), Plan{EraseFailWindow: Window{From: 1, To: 2}}).Erase(0); !errors.Is(err, flash.ErrEraseFail) {
		t.Fatalf("injected erase fail = %v, want ErrEraseFail", err)
	}
}

// TestBadBlocks verifies that dead regions fail deterministically for
// every op kind while healthy blocks are untouched.
func TestBadBlocks(t *testing.T) {
	inj := New(newChip(t, 9), Plan{BadBlocks: []BlockRange{{From: 4, To: 6}}})
	for _, b := range []int{4, 5} {
		if err := inj.ProgramTagged(b, 0, pagePayload(b, 0), 64, flash.PageTag{}); !errors.Is(err, flash.ErrProgramFail) {
			t.Fatalf("program in dead block %d: %v", b, err)
		}
		if _, err := inj.Read(b, 0); !errors.Is(err, flash.ErrReadFault) {
			t.Fatalf("read in dead block %d: %v", b, err)
		}
		if err := inj.Erase(b); !errors.Is(err, flash.ErrEraseFail) {
			t.Fatalf("erase in dead block %d: %v", b, err)
		}
	}
	for _, b := range []int{3, 6} {
		if err := inj.ProgramTagged(b, 0, pagePayload(b, 0), 64, flash.PageTag{}); err != nil {
			t.Fatalf("healthy block %d faulted: %v", b, err)
		}
	}
	if got := inj.FaultStats().Injected(); got != 6 {
		t.Fatalf("injected = %d, want 6", got)
	}
}

// TestPowerCutClean verifies a clean cut: op N fails, nothing reaches
// the medium, and every subsequent op fails until Restore.
func TestPowerCutClean(t *testing.T) {
	chip := newChip(t, 13)
	inj := New(chip, Plan{PowerCutAtOp: 3})
	for p := 0; p < 2; p++ {
		if err := inj.ProgramTagged(0, p, pagePayload(0, p), 64, flash.PageTag{}); err != nil {
			t.Fatalf("pre-cut program: %v", err)
		}
	}
	err := inj.ProgramTagged(0, 2, pagePayload(0, 2), 64, flash.PageTag{})
	if !errors.Is(err, ErrPowerCut) {
		t.Fatalf("op 3 = %v, want ErrPowerCut", err)
	}
	if st, err := chip.StateOf(0, 2); err != nil || st != flash.PageErased {
		t.Fatalf("clean cut leaked op to medium: state %v err %v", st, err)
	}
	if !inj.Down() {
		t.Fatal("injector not down after cut")
	}
	// Everything — indexed or not — fails while power is off.
	if _, err := inj.Read(0, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read while down: %v", err)
	}
	if _, err := inj.Info(0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("info while down: %v", err)
	}
	if err := inj.MarkStale(0, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("markstale while down: %v", err)
	}

	inj.Restore()
	if inj.Down() {
		t.Fatal("still down after Restore")
	}
	if _, err := inj.Read(0, 0); err != nil {
		t.Fatalf("read after Restore: %v", err)
	}
	if got := inj.FaultStats().PowerCuts; got != 1 {
		t.Fatalf("power cuts = %d, want 1", got)
	}
}

// TestPowerCutTorn verifies that a torn cut persists the dying op: the
// host sees ErrPowerCut but the page is written on the medium.
func TestPowerCutTorn(t *testing.T) {
	chip := newChip(t, 13)
	inj := New(chip, Plan{PowerCutAtOp: 1, TornCut: true})
	err := inj.ProgramTagged(0, 0, pagePayload(0, 0), 64, flash.PageTag{})
	if !errors.Is(err, ErrPowerCut) {
		t.Fatalf("torn op = %v, want ErrPowerCut", err)
	}
	st, err := chip.StateOf(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != flash.PageWritten {
		t.Fatalf("torn write not persisted: state %v", st)
	}
	inj.Restore()
	res, err := inj.Read(0, 0)
	if err != nil {
		t.Fatalf("read back torn write: %v", err)
	}
	if string(res.Data) != string(pagePayload(0, 0)) {
		t.Fatal("torn write content mismatch")
	}
}

// TestRestoreClearsOnlyCut verifies Restore consumes the power-cut
// trigger but leaves other rules armed across the reboot.
func TestRestoreClearsOnlyCut(t *testing.T) {
	inj := New(newChip(t, 17), Plan{
		PowerCutAtOp: 2,
		BadBlocks:    []BlockRange{{From: 0, To: 1}},
	})
	if err := inj.ProgramTagged(5, 0, pagePayload(5, 0), 64, flash.PageTag{}); err != nil { // op 1
		t.Fatalf("pre-cut program: %v", err)
	}
	if _, err := inj.Read(5, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut not triggered: %v", err)
	}
	inj.Restore()
	if _, err := inj.Read(0, 0); !errors.Is(err, flash.ErrReadFault) {
		t.Fatalf("bad-block rule lost across Restore: %v", err)
	}
	if _, err := inj.Read(5, 0); err != nil {
		t.Fatalf("healthy read after Restore: %v", err)
	}
	if got := inj.FaultStats().PowerCuts; got != 1 {
		t.Fatalf("power cuts = %d, want exactly 1 after Restore", got)
	}
}
