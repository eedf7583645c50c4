package ftl

import (
	"fmt"
)

// CheckInvariants verifies the FTL's internal consistency contract. It
// is exported (rather than test-only) because the crash-torture harness
// asserts it after every simulated power cut and rebuild:
//
//   - L2P and P2L are exact inverses;
//   - per-block valid counts equal the number of live mappings;
//   - the free pool holds only unallocated, non-retired, fully-erased
//     blocks, with no duplicates;
//   - per-block stale counts never exceed the programmed page count.
func CheckInvariants(f *FTL) error {
	live := 0
	perBlock := make([]int, len(f.blocks))
	for lpa := int64(0); lpa < int64(len(f.L2P)); lpa++ {
		m := f.L2P[lpa]
		if m.DataLen == 0 {
			continue
		}
		live++
		ppa := PPA{Block: m.Unit, Page: m.Index}
		if m.Unit < 0 || m.Unit >= len(f.blocks) || m.Index < 0 || m.Index >= f.ppb {
			return fmt.Errorf("ftl: lpa %d -> %v outside the physical address space", lpa, ppa)
		}
		if back := f.P2L[f.PageIndex(m.Unit, m.Index)]; back != lpa {
			return fmt.Errorf("ftl: lpa %d -> %v -> %d", lpa, ppa, back)
		}
		perBlock[m.Unit]++
	}
	if live != f.MappedPages() {
		return fmt.Errorf("ftl: mapped count %d but %d live l2p entries", f.MappedPages(), live)
	}
	reverse := 0
	for idx, lpa := range f.P2L {
		if lpa < 0 {
			continue
		}
		reverse++
		if lpa >= int64(len(f.L2P)) || f.L2P[lpa].DataLen == 0 {
			return fmt.Errorf("ftl: p2l entry %d -> lpa %d has no live forward mapping", idx, lpa)
		}
	}
	if reverse != live {
		return fmt.Errorf("ftl: l2p has %d live entries, p2l has %d", live, reverse)
	}
	for b := range f.Units {
		u := &f.Units[b]
		if u.InUse {
			if u.Live != perBlock[b] {
				return fmt.Errorf("ftl: block %d valid=%d but %d live mappings",
					b, u.Live, perBlock[b])
			}
		} else if perBlock[b] != 0 {
			return fmt.Errorf("ftl: unallocated block %d has %d live mappings", b, perBlock[b])
		}
		if u.Stale < 0 || u.Stale > u.Programmed {
			return fmt.Errorf("ftl: block %d stale=%d with %d programmed pages",
				b, u.Stale, u.Programmed)
		}
	}
	seen := map[int]bool{}
	for _, b := range f.freePool {
		if seen[b] {
			return fmt.Errorf("ftl: block %d in free pool twice", b)
		}
		seen[b] = true
		if f.Units[b].InUse || f.blocks[b].retired {
			return fmt.Errorf("ftl: free-pool block %d allocated=%v retired=%v",
				b, f.Units[b].InUse, f.blocks[b].retired)
		}
		info, err := f.chip.Info(b)
		if err != nil {
			return fmt.Errorf("ftl: free-pool block %d: %w", b, err)
		}
		if info.NextPage != 0 {
			return fmt.Errorf("ftl: free-pool block %d not erased (cursor %d)", b, info.NextPage)
		}
		if info.Retired {
			return fmt.Errorf("ftl: free-pool block %d retired on chip", b)
		}
	}
	// Retirement bookkeeping must agree with the medium.
	for b := range f.blocks {
		info, err := f.chip.Info(b)
		if err != nil {
			return err
		}
		if f.blocks[b].retired && !info.Retired {
			return fmt.Errorf("ftl: block %d retired in FTL but live on chip", b)
		}
	}
	return nil
}
