package storage

import "fmt"

// The L2P table is paged and pooled, so its memory tracks the live
// pages rather than every LPA ever written: the fs hands out LBAs
// upward and never reuses one, so a dense LPA-indexed table would hold
// an entry for each LBA a long-lived device ever saw.
//
// Mappings live in a pool sized by the peak live count and recycled
// through a free list. A directory of fixed-size leaves, indexed by
// LPA / leaf size, holds int32 pool references (pool index + 1, so the
// zero slot means unmapped). A leaf is allocated when its first LPA
// maps and dropped when its last entry clears; one emptied leaf is
// kept as a spare, so a trim/rewrite cycle allocates nothing. A lookup
// is three dependent array loads and walks visit LPAs in ascending
// order, so every pass over the table is deterministic.

// A leaf covers 1,024 LPAs: 4 KiB of references.
const (
	l2pLeafShift = 10
	l2pLeafSize  = 1 << l2pLeafShift
	l2pLeafMask  = l2pLeafSize - 1
)

// MaxLPA is the highest logical page address a backend maps. The L2P
// directory is dense in LPA / 1,024, so the bound caps it at 2^20
// leaf pointers (8 MiB) however far one write reaches; the longest
// simulation in this repository writes about 2×10^5 LBAs. Writes
// beyond it fail ErrBadLPA before anything is programmed, and a
// rebuild treats an OOB tag naming one as garbage (ValidTag).
const MaxLPA = 1<<30 - 1

// l2pLeaf maps l2pLeafSize consecutive LPAs to pool references.
type l2pLeaf struct {
	slot [l2pLeafSize]int32 // pool index + 1; 0 = unmapped
	live int32              // nonzero slots
}

// l2pTable is the paged, pooled LPA -> Mapping table. Its zero value is
// an empty table.
type l2pTable struct {
	dir    []*l2pLeaf
	pool   []Mapping
	free   []int32  // pool indices of cleared entries, for reuse
	spare  *l2pLeaf // an emptied, all-zero leaf for the next allocation
	mapped int
}

// get returns lpa's live mapping, or nil. Any int64 is accepted.
func (t *l2pTable) get(lpa int64) *Mapping {
	d := uint64(lpa) >> l2pLeafShift
	if d >= uint64(len(t.dir)) {
		return nil
	}
	lf := t.dir[d]
	if lf == nil {
		return nil
	}
	if i := lf.slot[lpa&l2pLeafMask]; i != 0 {
		return &t.pool[i-1]
	}
	return nil
}

// set maps lpa (0..MaxLPA) to m, updating its entry in place if it is
// already mapped.
func (t *l2pTable) set(lpa int64, m Mapping) {
	if uint64(lpa) > MaxLPA {
		panic(fmt.Sprintf("storage: l2p set of lpa %d outside 0..MaxLPA", lpa))
	}
	d := int(lpa >> l2pLeafShift)
	if d >= len(t.dir) {
		t.dir = append(t.dir, make([]*l2pLeaf, d+1-len(t.dir))...)
	}
	lf := t.dir[d]
	if lf == nil {
		lf, t.spare = t.spare, nil
		if lf == nil {
			lf = new(l2pLeaf)
		}
		t.dir[d] = lf
	}
	s := &lf.slot[lpa&l2pLeafMask]
	if *s == 0 {
		if n := len(t.free); n > 0 {
			*s = t.free[n-1] + 1
			t.free = t.free[:n-1]
		} else {
			t.pool = append(t.pool, Mapping{})
			*s = int32(len(t.pool))
		}
		lf.live++
		t.mapped++
	}
	t.pool[*s-1] = m
}

// clear unmaps lpa, if mapped. Its pool entry is zeroed onto the free
// list, and a leaf left empty leaves the directory.
func (t *l2pTable) clear(lpa int64) {
	d := uint64(lpa) >> l2pLeafShift
	if d >= uint64(len(t.dir)) {
		return
	}
	lf := t.dir[d]
	if lf == nil {
		return
	}
	s := &lf.slot[lpa&l2pLeafMask]
	if *s == 0 {
		return
	}
	i := *s - 1
	*s = 0
	t.pool[i] = Mapping{}
	t.free = append(t.free, i)
	t.mapped--
	if lf.live--; lf.live == 0 {
		t.dir[d] = nil
		if t.spare == nil {
			t.spare = lf
		}
	}
}

// next returns the lowest mapped LPA >= from, or -1 if there is none.
func (t *l2pTable) next(from int64) int64 {
	if from < 0 {
		from = 0
	}
	j := from & l2pLeafMask
	for d := from >> l2pLeafShift; d < int64(len(t.dir)); d, j = d+1, 0 {
		lf := t.dir[d]
		if lf == nil {
			continue
		}
		for ; j < l2pLeafSize; j++ {
			if lf.slot[j] != 0 {
				return d<<l2pLeafShift | j
			}
		}
	}
	return -1
}

// check verifies the table's own accounting, naming violations after
// name: every leaf in the directory holds at least one entry and counts
// its entries exactly; every pool entry is either referenced by exactly
// one LPA and live (DataLen >= 1), or on the free list exactly once and
// zero; the mapped count is the number of referenced entries; and the
// spare leaf, if any, is empty.
func (t *l2pTable) check(name string) error {
	// ref[i] is 1 + the LPA referencing pool entry i, -1 if the entry
	// is free, 0 if neither has been seen.
	ref := make([]int64, len(t.pool))
	mapped := 0
	for d, lf := range t.dir {
		if lf == nil {
			continue
		}
		live := 0
		for j, s := range lf.slot {
			if s == 0 {
				continue
			}
			lpa := int64(d)<<l2pLeafShift | int64(j)
			if s < 0 || int(s) > len(t.pool) {
				return fmt.Errorf("%s: lpa %d -> pool entry %d of %d", name, lpa, s-1, len(t.pool))
			}
			if prev := ref[s-1]; prev != 0 {
				return fmt.Errorf("%s: pool entry %d referenced by lpas %d and %d", name, s-1, prev-1, lpa)
			}
			ref[s-1] = lpa + 1
			if t.pool[s-1].DataLen < 1 {
				return fmt.Errorf("%s: lpa %d -> pool entry %d holds no mapping", name, lpa, s-1)
			}
			live++
		}
		if live == 0 {
			return fmt.Errorf("%s: empty l2p leaf %d left in the directory", name, d)
		}
		if int(lf.live) != live {
			return fmt.Errorf("%s: l2p leaf %d counts %d live entries, holds %d", name, d, lf.live, live)
		}
		mapped += live
	}
	if mapped != t.mapped {
		return fmt.Errorf("%s: mapped count %d but %d live l2p entries", name, t.mapped, mapped)
	}
	for _, i := range t.free {
		if i < 0 || int(i) >= len(t.pool) {
			return fmt.Errorf("%s: free list holds pool entry %d of %d", name, i, len(t.pool))
		}
		switch prev := ref[i]; {
		case prev > 0:
			return fmt.Errorf("%s: free pool entry %d referenced by lpa %d", name, i, prev-1)
		case prev < 0:
			return fmt.Errorf("%s: pool entry %d on the free list twice", name, i)
		}
		ref[i] = -1
		if t.pool[i] != (Mapping{}) {
			return fmt.Errorf("%s: free pool entry %d holds %+v", name, i, t.pool[i])
		}
	}
	for i, r := range ref {
		if r == 0 {
			return fmt.Errorf("%s: pool entry %d neither referenced nor free", name, i)
		}
	}
	if lf := t.spare; lf != nil && (lf.live != 0 || lf.slot != [l2pLeafSize]int32{}) {
		return fmt.Errorf("%s: spare l2p leaf holds %d live entries", name, lf.live)
	}
	return nil
}
