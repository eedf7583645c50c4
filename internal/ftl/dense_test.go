package ftl

import (
	"errors"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
)

// noneFTL builds an FTL with a single no-ECC native stream — the
// configuration whose steady-state read path carries the zero-alloc
// contract (ecc.None decode aliases its input, the chip read ring
// supplies the buffer).
func noneFTL(t testing.TB, blocks int) *FTL {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: blocks},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{{
			Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.None{},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFTLReadPathZeroAlloc pins the steady-state read path at zero
// allocations per operation: dense L2P lookup, chip read-ring buffer,
// aliasing ecc.None decode. A regression here means a hot-path
// allocation crept back in (see DESIGN.md §9).
func TestFTLReadPathZeroAlloc(t *testing.T) {
	f := noneFTL(t, 16)
	data := make([]byte, 512)
	for lpa := int64(0); lpa < 40; lpa++ {
		if err := f.Write(lpa, data, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the chip's rotating read ring (it allocates lazily).
	for lpa := int64(0); lpa < 8; lpa++ {
		if _, err := f.Read(lpa); err != nil {
			t.Fatal(err)
		}
	}
	lpa := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Read(lpa); err != nil {
			t.Fatal(err)
		}
		lpa = (lpa + 1) % 40
	})
	if allocs != 0 {
		t.Fatalf("steady-state read path allocates %.1f times per op, want 0", allocs)
	}
}

// TestDenseL2PGrowthSparseLPA exercises the dense table's on-demand
// growth: a write far beyond the current table must grow it without
// disturbing existing mappings, and negative LPAs (which a dense table
// cannot index) must be rejected with ErrBadLPA.
func TestDenseL2PGrowthSparseLPA(t *testing.T) {
	f := noneFTL(t, 16)
	data := make([]byte, 512)
	if err := f.Write(0, data, 0, 0); err != nil {
		t.Fatal(err)
	}
	const far = int64(100_000)
	if err := f.Write(far, data, 0, 0); err != nil {
		t.Fatalf("sparse write at lpa %d: %v", far, err)
	}
	if int64(len(f.L2P)) <= far {
		t.Fatalf("l2p did not grow: len %d for lpa %d", len(f.L2P), far)
	}
	for _, lpa := range []int64{0, far} {
		if _, err := f.Read(lpa); err != nil {
			t.Fatalf("read %d after growth: %v", lpa, err)
		}
	}
	if f.MappedPages() != 2 {
		t.Fatalf("mapped = %d, want 2", f.MappedPages())
	}
	if err := f.Write(-1, data, 0, 0); !errors.Is(err, ErrBadLPA) {
		t.Fatalf("negative lpa returned %v, want ErrBadLPA", err)
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// TestDenseP2LInvalidationOnQuarantine retires a block holding live
// data and checks every dense P2L slot of the retired block reads the
// -1 sentinel — stale reverse entries would resurrect garbage at the
// next GC or rebuild.
func TestDenseP2LInvalidationOnQuarantine(t *testing.T) {
	f := noneFTL(t, 16)
	data := make([]byte, 512)
	for lpa := int64(0); lpa < 20; lpa++ {
		if err := f.Write(lpa, data, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ppa, _, _, ok := f.Locate(0)
	if !ok {
		t.Fatal("lpa 0 unmapped")
	}
	// Quarantine seals the block; draining it reclaims the live pages
	// and retires it at erase time.
	if err := f.Quarantine(ppa.Block); err != nil {
		t.Fatal(err)
	}
	if err := f.Reclaim(ppa.Block); err != nil {
		t.Fatal(err)
	}
	if !f.blocks[ppa.Block].retired {
		t.Fatalf("block %d not retired after drain", ppa.Block)
	}
	base := f.PageIndex(ppa.Block, 0)
	for page := 0; page < f.chip.Geometry().PagesPerBlock; page++ {
		if got := f.P2L[base+page]; got != -1 {
			t.Fatalf("retired block %d page %d still maps lpa %d", ppa.Block, page, got)
		}
	}
	// The drained data must have been relocated, not lost.
	for lpa := int64(0); lpa < 20; lpa++ {
		if _, err := f.Read(lpa); err != nil {
			t.Fatalf("read %d after quarantine: %v", lpa, err)
		}
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// TestDenseL2PGrowthAcrossCapacityVariance interleaves table growth
// with the capacity-variance machinery: blocks wear out, resuscitate at
// lower density, and eventually retire while the host keeps mapping
// fresh, ever-higher LPAs. The dense tables must stay exact inverses
// throughout the shrink/regrow churn.
func TestDenseL2PGrowthAcrossCapacityVariance(t *testing.T) {
	f, _ := testFTL(t, 8)
	data := make([]byte, 64)
	next := int64(1000) // fresh LPAs force growth as capacity varies
	for i := 0; i < 400*8*10; i++ {
		var lpa int64
		if i%97 == 0 {
			lpa, next = next, next+50
		} else {
			lpa = int64(i % 20)
		}
		err := f.Write(lpa, data, 0, spareStream)
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%1000 == 0 {
			if err := CheckInvariants(f); err != nil {
				t.Fatalf("invariants at write %d: %v", i, err)
			}
		}
	}
	if f.Stats().Resuscitated == 0 {
		t.Fatal("workload never triggered resuscitation")
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDenseTablesMatchGolden rebuilds from the chip and checks
// the recovered dense tables are entry-for-entry identical to the live
// FTL's — the dense election (serial-0 sentinel, doubling growth) must
// reproduce exactly what the incremental path built up.
func TestRecoverDenseTablesMatchGolden(t *testing.T) {
	f, _ := testFTL(t, 16)
	data := make([]byte, 64)
	for i := 0; i < 300; i++ {
		lpa := int64(i % 37)
		st := sysStream
		if i%3 == 0 {
			st = spareStream
		}
		if err := f.Write(lpa, data, 0, st); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Trim, then overwrite: a bare trim is volatile (rebuild resurrects
	// the newest durable copy by design), but an overwrite after a trim
	// must win the serial election like any other supersede.
	for _, lpa := range []int64{3, 17, 29} {
		if err := f.Trim(lpa); err != nil {
			t.Fatal(err)
		}
		if err := f.Write(lpa, data, 0, sysStream); err != nil {
			t.Fatal(err)
		}
	}
	rb, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	nf := rb.(*FTL)
	if nf.MappedPages() != f.MappedPages() {
		t.Fatalf("recovered %d mappings, golden has %d", nf.MappedPages(), f.MappedPages())
	}
	// Forward table: identical entries over the union of both lengths.
	max := int64(len(f.L2P))
	if int64(len(nf.L2P)) > max {
		max = int64(len(nf.L2P))
	}
	for lpa := int64(0); lpa < max; lpa++ {
		gm, gok := f.Lookup(lpa)
		rm, rok := nf.Lookup(lpa)
		if gok != rok || gm != rm {
			t.Fatalf("lpa %d: golden %+v(%v), recovered %+v(%v)", lpa, gm, gok, rm, rok)
		}
	}
	// Reverse table: same physical slots live, pointing at the same LPAs.
	if len(nf.P2L) != len(f.P2L) {
		t.Fatalf("p2l length %d, golden %d", len(nf.P2L), len(f.P2L))
	}
	for i := range f.P2L {
		if f.P2L[i] != nf.P2L[i] {
			t.Fatalf("p2l[%d]: golden %d, recovered %d", i, f.P2L[i], nf.P2L[i])
		}
	}
	if err := CheckInvariants(nf); err != nil {
		t.Fatal(err)
	}
}
