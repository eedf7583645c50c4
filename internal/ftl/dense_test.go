package ftl

import (
	"errors"
	"runtime"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
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
// allocations per operation: paged L2P lookup, chip read-ring buffer,
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

// TestPagedL2PSparseLPA exercises the paged table on a sparse logical
// space: a write far beyond every mapped LPA costs one leaf and a
// longer directory, not a table reaching that LPA, and disturbs no
// existing mapping; trimming it drops its leaf again (CheckInvariants
// rejects an empty leaf left in the directory); LPAs outside
// 0..MaxLPA are rejected with ErrBadLPA.
func TestPagedL2PSparseLPA(t *testing.T) {
	f := noneFTL(t, 16)
	data := make([]byte, 512)
	if err := f.Write(0, data, 0, 0); err != nil {
		t.Fatal(err)
	}
	const far = int64(100_000)
	// A dense table would allocate far entries of 56 B (5.6 MB) here.
	before := heapAllocated()
	if err := f.Write(far, data, 0, 0); err != nil {
		t.Fatalf("sparse write at lpa %d: %v", far, err)
	}
	if grew := heapAllocated() - before; grew > 64<<10 {
		t.Fatalf("sparse write at lpa %d allocated %d bytes, want about one leaf", far, grew)
	}
	for _, lpa := range []int64{0, far} {
		if _, err := f.Read(lpa); err != nil {
			t.Fatalf("read %d after growth: %v", lpa, err)
		}
	}
	if f.MappedPages() != 2 {
		t.Fatalf("mapped = %d, want 2", f.MappedPages())
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(far); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(far); !errors.Is(err, ErrUnknownLPA) {
		t.Fatalf("trimmed lpa %d reads %v", far, err)
	}
	if _, err := f.Read(0); err != nil || f.MappedPages() != 1 {
		t.Fatalf("read 0 after trim: %v, %d mapped", err, f.MappedPages())
	}
	for _, lpa := range []int64{-1, storage.MaxLPA + 1, 1 << 62} {
		if err := f.Write(lpa, data, 0, 0); !errors.Is(err, ErrBadLPA) {
			t.Fatalf("lpa %d returned %v, want ErrBadLPA", lpa, err)
		}
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// heapAllocated returns the bytes the process has heap-allocated so far.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
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

// TestPagedL2PAcrossCapacityVariance interleaves leaf allocation and
// release with the capacity-variance machinery: blocks wear out,
// resuscitate at lower density, and eventually retire while the host
// keeps mapping fresh, ever-higher LPAs — crossing into a new leaf
// every twenty or so — and trims each one once it falls thirty fresh
// LPAs behind, so low leaves drain and leave the directory. The tables
// must stay exact inverses, and the table's own accounting exact,
// throughout the shrink/regrow churn.
func TestPagedL2PAcrossCapacityVariance(t *testing.T) {
	f, _ := testFTL(t, 8)
	data := make([]byte, 64)
	next := int64(1000) // fresh LPAs force growth as capacity varies
	var fresh []int64
	for i := 0; i < 400*8*10; i++ {
		var lpa int64
		if i%97 == 0 {
			lpa, next = next, next+50
			fresh = append(fresh, lpa)
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
		if len(fresh) > 30 {
			if err := f.Trim(fresh[0]); err != nil {
				t.Fatalf("trim %d: %v", fresh[0], err)
			}
			fresh = fresh[1:]
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
	// The 30 live fresh LPAs span 1,500; fresh LPAs three 1,024-LPA
	// leaves past that mean leaves below them drained.
	if next < 1000+50*30+3*1024 {
		t.Fatalf("fresh LPAs reached only %d: no leaf drained", next)
	}
	if err := CheckInvariants(f); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPagedTablesMatchGolden rebuilds from the chip and checks
// the recovered tables are entry-for-entry identical to the live FTL's
// — the sort-based election (ascending LPA, newest serial first),
// installing winners into the paged table across several leaves, must
// reproduce exactly what the incremental path built up, and the
// recovered table's own accounting must hold.
func TestRecoverPagedTablesMatchGolden(t *testing.T) {
	f, _ := testFTL(t, 16)
	data := make([]byte, 64)
	var written []int64
	for i := 0; i < 300; i++ {
		// Every fifth write lands 4,096 LPAs up, in another leaf.
		lpa := int64(i % 37)
		if i%5 == 0 {
			lpa += 4 * 1024
		}
		written = append(written, lpa)
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
	// Forward table: identical entries at every LPA written and at its
	// neighbours; with equal mapped counts, nothing else is mapped.
	for _, w := range written {
		for lpa := w - 1; lpa <= w+1; lpa++ {
			gm, gok := f.Lookup(lpa)
			rm, rok := nf.Lookup(lpa)
			if gok != rok || gm != rm {
				t.Fatalf("lpa %d: golden %+v(%v), recovered %+v(%v)", lpa, gm, gok, rm, rok)
			}
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
