package ftl

import "fmt"

// DumpBlocks returns a per-block accounting line for debugging and
// tests: mode, programmed/valid/stale page counts, ownership.
func (f *FTL) DumpBlocks() []string {
	free := map[int]bool{}
	for _, b := range f.freePool {
		free[b] = true
	}
	var out []string
	for b := range f.Units {
		u := &f.Units[b]
		pages, _ := f.chip.PagesIn(b)
		out = append(out, fmt.Sprintf(
			"b%02d owner=%d alloc=%v free=%v active=%v pages=%d full=%d valid=%d stale=%d retired=%v",
			b, u.Owner, u.InUse, free[b], f.IsActive(b), pages, u.Programmed, u.Live, u.Stale, f.blocks[b].retired))
	}
	return out
}
