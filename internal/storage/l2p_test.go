package storage

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestL2PTableAgainstReference drives the paged table the way the fs
// drives a backend — LPAs handed out upward and never reused, with rare
// jumps — while older pages are trimmed and live ones rewritten in
// place (relocation), against a reference map. It checks every lookup
// of the touched LPA after each op, and periodically the whole table:
// the walk visits exactly the reference's LPAs in ascending order, the
// pool holds one entry per peak live mapping and the rest of it is on
// the free list, the directory holds exactly the leaves live LPAs fall
// in (so a leaf is released when it empties), and check passes.
func TestL2PTableAgainstReference(t *testing.T) {
	var tb l2pTable
	ref := map[int64]Mapping{}
	var live []int64 // ascending, since new LPAs only march upward
	rng := rand.New(rand.NewSource(21))
	next, peak := int64(0), 0
	for op := 0; op < 30_000; op++ {
		set := func(lpa int64) {
			m := Mapping{Unit: op, Index: rng.Intn(64), DataLen: 1 + rng.Intn(4096), Hint: LifetimeHint(rng.Intn(NumLifetimeHints))}
			tb.set(lpa, m)
			ref[lpa] = m
		}
		var lpa int64
		switch r := rng.Intn(100); {
		case len(live) == 0 || (r < 40 && len(live) < 700):
			if rng.Intn(400) == 0 {
				next += 3_000 + rng.Int63n(20_000)
			}
			lpa, next = next, next+1
			live = append(live, lpa)
			set(lpa)
		case r < 80:
			// Trim, mostly among the oldest live pages, so low leaves
			// drain and leave the directory.
			k := rng.Intn(len(live))
			if rng.Intn(3) > 0 {
				k = rng.Intn((len(live) + 3) / 4)
			}
			lpa = live[k]
			live = slices.Delete(live, k, k+1)
			tb.clear(lpa)
			delete(ref, lpa)
		default:
			lpa = live[rng.Intn(len(live))]
			set(lpa)
		}
		peak = max(peak, len(ref))
		got, want := tb.get(lpa), ref[lpa]
		if _, ok := ref[lpa]; ok != (got != nil) || (ok && *got != want) {
			t.Fatalf("op %d: get(%d) = %v, want %+v (mapped %v)", op, lpa, got, want, ok)
		}
		if op%97 == 0 || op == 29_999 {
			checkTable(t, &tb, ref, live, peak)
		}
	}
	if len(tb.dir) < 8 {
		t.Fatalf("the run spanned only %d leaves", len(tb.dir))
	}
	mapped := tb.mapped
	for _, lpa := range []int64{next, -1, MaxLPA + 1, 1 << 62} {
		if tb.clear(lpa); tb.get(lpa) != nil || tb.mapped != mapped {
			t.Fatalf("unmapped lpa %d reads as mapped or clears an entry", lpa)
		}
	}
}

// checkTable compares the whole table with the reference.
func checkTable(t *testing.T, tb *l2pTable, ref map[int64]Mapping, live []int64, peak int) {
	t.Helper()
	if err := tb.check("l2p"); err != nil {
		t.Fatal(err)
	}
	i := 0
	for lpa := tb.next(0); lpa >= 0; lpa = tb.next(lpa + 1) {
		if i >= len(live) || lpa != live[i] {
			t.Fatalf("walk visits lpa %d at step %d, want %v", lpa, i, live[i:min(i+1, len(live))])
		}
		if *tb.get(lpa) != ref[lpa] {
			t.Fatalf("lpa %d holds %+v, want %+v", lpa, *tb.get(lpa), ref[lpa])
		}
		i++
	}
	if i != len(live) || tb.mapped != len(ref) {
		t.Fatalf("walk visits %d lpas, mapped count %d, reference %d", i, tb.mapped, len(ref))
	}
	if len(tb.pool) != peak || len(tb.pool)-len(tb.free) != len(ref) {
		t.Fatalf("pool of %d entries (%d free) for %d live mappings, peak %d", len(tb.pool), len(tb.free), len(ref), peak)
	}
	leaves, want := 0, 0
	for _, lf := range tb.dir {
		if lf != nil {
			leaves++
		}
	}
	for k, lpa := range live {
		if k == 0 || lpa>>l2pLeafShift != live[k-1]>>l2pLeafShift {
			want++
		}
	}
	if leaves != want {
		t.Fatalf("directory holds %d leaves, live LPAs fall in %d", leaves, want)
	}
}

// TestL2PSteadyStateZeroAlloc pins set and clear at zero allocations
// once the pool, free list and spare leaf have grown: a cycle that
// empties a whole leaf and maps it again, and an in-place rewrite (a
// relocation), allocate nothing.
func TestL2PSteadyStateZeroAlloc(t *testing.T) {
	var tb l2pTable
	for lpa := int64(0); lpa < 2*l2pLeafSize; lpa++ {
		tb.set(lpa, Mapping{DataLen: 1})
	}
	cycle := func() {
		for lpa := int64(0); lpa < l2pLeafSize; lpa++ {
			tb.clear(lpa)
		}
		for lpa := int64(0); lpa < l2pLeafSize; lpa++ {
			tb.set(lpa, Mapping{DataLen: 2})
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("trim/rewrite cycle allocates %.1f times, want 0", allocs)
	}
	unit := 0
	if allocs := testing.AllocsPerRun(100, func() {
		unit++
		tb.set(int64(unit%(2*l2pLeafSize)), Mapping{Unit: unit, DataLen: 3})
	}); allocs != 0 {
		t.Fatalf("in-place set allocates %.1f times, want 0", allocs)
	}
	if err := tb.check("l2p"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckMappingCatchesL2PTampering breaks each piece of the table's
// own accounting on a consistent Reclaimer and requires CheckMapping to
// name it.
func TestCheckMappingCatchesL2PTampering(t *testing.T) {
	rows := []struct {
		name, want string
		tamper     func(tb *l2pTable)
	}{
		{"leaf live count off", "counts 4 live entries, holds 3", func(tb *l2pTable) { tb.dir[0].live++ }},
		{"empty leaf left in the directory", "empty l2p leaf 1", func(tb *l2pTable) {
			lf := tb.dir[1]
			i := lf.slot[0] - 1
			lf.slot[0], lf.live = 0, 0
			tb.pool[i] = Mapping{}
			tb.free = append(tb.free, i)
			tb.mapped--
		}},
		{"pool entry leaked", "neither referenced nor free", func(tb *l2pTable) { tb.free = tb.free[:0] }},
		{"pool entry referenced twice", "referenced by lpas 0 and 1", func(tb *l2pTable) { tb.dir[0].slot[1] = tb.dir[0].slot[0] }},
		{"free entry still referenced", "free pool entry", func(tb *l2pTable) { tb.free = append(tb.free, tb.dir[0].slot[0]-1) }},
		{"referenced entry holds no mapping", "holds no mapping", func(tb *l2pTable) { tb.pool[tb.dir[0].slot[2]-1].DataLen = 0 }},
		{"spare leaf not empty", "spare l2p leaf", func(tb *l2pTable) { tb.spare = &l2pLeaf{live: 1} }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := checkReclaimer(t)
			row.tamper(&r.l2p)
			err := r.CheckMapping()
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("CheckMapping = %v, want an error containing %q", err, row.want)
			}
		})
	}
}

// checkReclaimer returns a Reclaimer whose tables and units agree: LPAs
// 0, 1 and 2 on unit 0, LPA l2pLeafSize on unit 1, and one pool entry
// free after LPA 3 was trimmed.
func checkReclaimer(t *testing.T) *Reclaimer {
	t.Helper()
	r := &Reclaimer{}
	r.Init(ReclaimConfig{Name: "t", Streams: []StreamPolicy{{Name: "s"}}, Units: 2, Stride: 4, BlocksPerUnit: 1})
	place := func(lpa int64, u, idx int) {
		r.SetMapping(lpa, Mapping{Unit: u, Index: idx, DataLen: 64})
		un := &r.Units[u]
		un.InUse, un.Live, un.Programmed = true, un.Live+1, idx+1
	}
	place(0, 0, 0)
	place(1, 0, 1)
	place(2, 0, 2)
	place(3, 0, 3)
	place(l2pLeafSize, 1, 0)
	r.P2L[r.PageIndex(0, 3)] = -1
	r.ClearMapping(3)
	r.Units[0].Live--
	r.Units[0].Stale++
	if err := r.CheckMapping(); err != nil {
		t.Fatalf("before tampering: %v", err)
	}
	return r
}
