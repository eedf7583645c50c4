package ftl

import (
	"errors"
	"testing"

	"sos/internal/ecc"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// tortureFTL builds a tiny single-stream PLC FTL for wear-out testing.
func tortureFTL(t *testing.T, blocks int, resuscitate []int) *FTL {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 8, Blocks: blocks},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     123,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{{
			Name: "spare", Mode: flash.NativeMode(flash.PLC),
			Scheme: ecc.None{}, Resuscitate: resuscitate,
			// Run blocks past their rating so the hard-failure path
			// is actually exercised.
			WearRetireFrac: 1.5,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestProgramFailureAbsorbed(t *testing.T) {
	// Write far past total endurance: the FTL must absorb every
	// program/erase failure by sealing/retiring blocks — the host only
	// ever sees success or ErrNoSpace.
	f := tortureFTL(t, 8, nil)
	var firstErr error
	writes := 0
	for i := 0; i < 100000; i++ {
		err := f.Write(int64(i%12), nil, 128, 0)
		if err != nil {
			firstErr = err
			break
		}
		writes++
	}
	if firstErr != nil && !errors.Is(firstErr, ErrNoSpace) {
		t.Fatalf("host saw a non-space error after %d writes: %v", writes, firstErr)
	}
	st := f.Stats()
	chipStats := f.Chip().Stats()
	if chipStats.ProgFails == 0 && chipStats.EraseFails == 0 {
		t.Skipf("no hard failures occurred in %d writes; torture too light", writes)
	}
	if chipStats.ProgFails > 0 && st.ProgFailures == 0 {
		t.Fatal("chip program failures not recorded by the FTL")
	}
	if st.Retired == 0 {
		t.Fatal("hard failures retired no blocks")
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestFailedBlockDrained(t *testing.T) {
	// After heavy wear, data on sealed/failed blocks must remain
	// readable: GC drains them with priority.
	f := tortureFTL(t, 8, nil)
	payload := func(lpa int64) []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(lpa + int64(i))
		}
		return b
	}
	// Durable set.
	for lpa := int64(0); lpa < 6; lpa++ {
		if err := f.Write(lpa, payload(lpa), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Churn until failures appear or budget ends.
	for i := 0; i < 60000; i++ {
		if err := f.Write(100+int64(i%6), nil, 128, 0); err != nil {
			break
		}
	}
	// Every durable page must still be mapped and readable, possibly
	// degraded but never lost.
	for lpa := int64(0); lpa < 6; lpa++ {
		res, err := f.Read(lpa)
		if err != nil {
			t.Fatalf("lpa %d lost after wear-out churn: %v", lpa, err)
		}
		if res.DataLen != 64 {
			t.Fatalf("lpa %d length %d", lpa, res.DataLen)
		}
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailureRetiresBlock(t *testing.T) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 4, Blocks: 2},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle block 0 far past rating until an erase fails.
	sawFailure := false
	for i := 0; i < 2000; i++ {
		if err := chip.Erase(0); errors.Is(err, flash.ErrEraseFail) {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("no erase failure in 2000 cycles at 5x rating")
	}
	if chip.Stats().EraseFails == 0 {
		t.Fatal("erase failure not counted")
	}
}

func TestFailureProbShape(t *testing.T) {
	em := flash.DefaultErrorModel()
	m := flash.NativeMode(flash.PLC)
	if p := em.FailureProb(m, m.RatedPEC(), 1); p != 0 {
		t.Fatalf("failure probability %v at rated wear, want 0", p)
	}
	p15 := em.FailureProb(m, m.RatedPEC()*3/2, 1)
	p20 := em.FailureProb(m, m.RatedPEC()*2, 1)
	if !(p15 > 0 && p20 > p15) {
		t.Fatalf("failure probability not ramping: %v, %v", p15, p20)
	}
	if p := em.FailureProb(m, m.RatedPEC()*100, 1); p > 0.5 {
		t.Fatalf("failure probability uncapped: %v", p)
	}
}

func TestProgramFailurePreservesOldData(t *testing.T) {
	// A failed overwrite must not destroy the previous version: the
	// L2P mapping only moves after a successful program.
	f := tortureFTL(t, 8, nil)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := f.Write(1, want, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite many times; some attempts may internally retry across
	// program failures once blocks wear.
	for i := 0; i < 30000; i++ {
		if err := f.Write(1, want, 0, 0); err != nil {
			break
		}
	}
	res, err := f.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLen != len(want) {
		t.Fatalf("mapping lost: len %d", res.DataLen)
	}
}

// TestProgramRetryBudget pins the write retry budget: an op whose
// programs keep failing gets exactly storage.MaxProgramAttempts programs in
// total — its batched program plus slow-path retries — before
// ErrProgramFail reaches the host, whether it is a per-op Write, a
// one-op batch, or one op of many in a batch.
func TestProgramRetryBudget(t *testing.T) {
	payload := make([]byte, 120)
	check := func(t *testing.T, inj *fault.Injector, f *FTL, errs []error) {
		t.Helper()
		for i, err := range errs {
			if !errors.Is(err, flash.ErrProgramFail) {
				t.Errorf("op %d: err = %v, want ErrProgramFail", i, err)
			}
		}
		if got, want := inj.Ops(), int64(storage.MaxProgramAttempts*len(errs)); got != want {
			t.Errorf("%d program ops for %d failing writes, want %d", got, len(errs), want)
		}
		if f.Contains(1) {
			t.Error("failed write left a mapping behind")
		}
		if err := checkInvariants(f); err != nil {
			t.Error(err)
		}
	}
	window := func(n int) fault.Plan {
		return fault.Plan{ProgramFailWindow: fault.Window{From: 1, To: int64(1 + storage.MaxProgramAttempts*n)}}
	}
	t.Run("per-op", func(t *testing.T) {
		_, inj, _, f := crashStack(t, window(1))
		check(t, inj, f, []error{f.Write(1, payload, 0, 0)})
	})
	t.Run("one-op-batch", func(t *testing.T) {
		_, inj, _, f := crashStack(t, window(1))
		fates := make([]storage.BatchFate, 1)
		f.WriteBatch([]storage.BatchOp{{LPA: 1, Data: payload}}, fates, 1, 1)
		check(t, inj, f, []error{fates[0].Err})
	})
	t.Run("multi-op-batch", func(t *testing.T) {
		_, inj, _, f := crashStack(t, window(3))
		ops := []storage.BatchOp{{LPA: 1, Data: payload}, {LPA: 2, Data: payload}, {LPA: 3, DataLen: 64}}
		fates := make([]storage.BatchFate, len(ops))
		f.WriteBatch(ops, fates, 2, 1)
		check(t, inj, f, []error{fates[0].Err, fates[1].Err, fates[2].Err})
	})
}
