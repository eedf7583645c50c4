package storage

import "fmt"

// CheckMapping verifies the part of a backend's consistency contract
// that lives in the Reclaimer; each backend's CheckInvariants runs it
// first and then checks its own state. It is read-only and assumes a
// quiescent backend:
//
//   - the L2P table's own accounting holds: every pool entry is either
//     referenced by exactly one LPA or free, each leaf's live count
//     matches its slots, and no empty leaf stays in the directory;
//   - L2P and P2L are exact inverses, back-pointers included;
//   - every mapping names a known stream;
//   - every unit's live count agrees with the tables, and a unit out of
//     use holds no live page;
//   - no unit has more stale pages than programmed pages;
//   - every active slot holds an in-use, uncondemned unit whose Owner
//     and Bin name that slot.
func (r *Reclaimer) CheckMapping() error {
	if err := r.l2p.check(r.name); err != nil {
		return err
	}
	perUnit := make([]int, len(r.Units))
	for lpa := r.l2p.next(0); lpa >= 0; lpa = r.l2p.next(lpa + 1) {
		m := r.l2p.get(lpa)
		if m.Unit < 0 || m.Unit >= len(r.Units) || m.Index < 0 || m.Index >= r.stride {
			return fmt.Errorf("%s: lpa %d -> unit %d idx %d outside the physical address space", r.name, lpa, m.Unit, m.Index)
		}
		if m.Stream < 0 || int(m.Stream) >= len(r.streams) {
			return fmt.Errorf("%s: lpa %d on unknown stream %d", r.name, lpa, m.Stream)
		}
		if back := r.P2L[r.PageIndex(m.Unit, m.Index)]; back != lpa {
			return fmt.Errorf("%s: lpa %d -> unit %d idx %d -> lpa %d", r.name, lpa, m.Unit, m.Index, back)
		}
		perUnit[m.Unit]++
	}
	// Every live L2P entry owns the P2L entry it points at, so a P2L
	// entry that points back at its own mapping is one of those.
	for idx, lpa := range r.P2L {
		if lpa < 0 {
			continue
		}
		if m := r.l2p.get(lpa); m == nil || r.PageIndex(m.Unit, m.Index) != idx {
			return fmt.Errorf("%s: p2l entry unit %d idx %d -> lpa %d has no matching l2p entry", r.name, idx/r.stride, idx%r.stride, lpa)
		}
	}
	for u := range r.Units {
		un := &r.Units[u]
		if un.Live != perUnit[u] || (!un.InUse && un.Live != 0) {
			return fmt.Errorf("%s: unit %d (in-use=%v) counts %d live pages, mappings say %d", r.name, u, un.InUse, un.Live, perUnit[u])
		}
		if un.Stale < 0 || un.Stale > un.Programmed {
			return fmt.Errorf("%s: unit %d stale=%d with %d programmed pages", r.name, u, un.Stale, un.Programmed)
		}
	}
	for s, u := range r.Active {
		if u < 0 {
			continue
		}
		id, h := s/NumLifetimeHints, LifetimeHint(s%NumLifetimeHints)
		if u >= len(r.Units) {
			return fmt.Errorf("%s: stream %d/%v active unit %d of %d", r.name, id, h, u, len(r.Units))
		}
		if un := &r.Units[u]; !un.InUse || un.Condemned || r.slotOf(u) != s {
			return fmt.Errorf("%s: stream %d/%v active unit %d: in-use=%v condemned=%v owner=%d bin=%v",
				r.name, id, h, u, un.InUse, un.Condemned, un.Owner, un.Bin)
		}
	}
	return nil
}
