package ftl

import (
	"fmt"
)

// CheckInvariants verifies the FTL's internal consistency contract. It
// is exported (rather than test-only) because the crash-torture harness
// asserts it after every simulated power cut and rebuild:
//
//   - the mapping tables, unit counts and active slots pass
//     storage.Reclaimer.CheckMapping;
//   - the free pool holds only unallocated, non-retired, fully-erased
//     blocks, with no duplicates;
//   - retirement bookkeeping agrees with the medium;
//   - every in-use block's allocation snapshot (blockState.info) agrees
//     with the chip on Mode, PEC, Pages, RatedPEC and WearFrac.
func CheckInvariants(f *FTL) error {
	if err := f.CheckMapping(); err != nil {
		return err
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
	// Retirement bookkeeping and in-use snapshots must agree with the
	// medium.
	for b := range f.blocks {
		info, err := f.chip.Info(b)
		if err != nil {
			return err
		}
		if f.blocks[b].retired && !info.Retired {
			return fmt.Errorf("ftl: block %d retired in FTL but live on chip", b)
		}
		if s := &f.blocks[b].info; f.Units[b].InUse && (s.Mode != info.Mode || s.PEC != info.PEC ||
			s.Pages != info.Pages || s.RatedPEC != info.RatedPEC || s.WearFrac != info.WearFrac) {
			return fmt.Errorf("ftl: in-use block %d snapshot mode %v pec %d pages %d rated %d wear %v, chip has %v %d %d %d %v",
				b, s.Mode, s.PEC, s.Pages, s.RatedPEC, s.WearFrac, info.Mode, info.PEC, info.Pages, info.RatedPEC, info.WearFrac)
		}
	}
	return nil
}
