package zns

import (
	"errors"
	"fmt"

	"sos/internal/flash"
)

// CheckInvariants validates the backend's structural invariants — the
// zoned mirror of ftl.CheckInvariants. It is read-only and intended for
// tests and post-recovery verification (the torture harness); it
// assumes a quiescent backend, not one mid-crash.
//
// Checked:
//   - The mapping tables, unit counts and active slots pass
//     storage.Reclaimer.CheckMapping.
//   - Each zone's reclaim-policy unit mirrors it: programmed pages equal
//     the write pointer, stale pages the rest of them, and in-use means
//     open or full.
//   - Mapped pages live below their zone's write pointer with
//     consistent recorded lengths.
//   - Each online zone's cached layout (per-block page counts and
//     capacity) matches the chip's page counts.
//   - Write-pointer monotonicity: each zone's wp equals the sum of its
//     blocks' program cursors and never exceeds capacity.
//   - Empty zones hold no programmed pages.
//   - Offline zones' blocks carry the durable retired marker, and their
//     programmed pages remain readable.
//   - No online zone contains a retired block.
//   - Append targets are open zones of their stream's attribute.
func CheckInvariants(b *Backend) error {
	if err := b.CheckMapping(); err != nil {
		return err
	}
	d := b.dev
	// CheckMapping proved P2L the exact inverse of L2P, so this walk
	// visits every live mapping once, at the zone and index it names.
	stride := len(b.P2L) / len(d.zones)
	for p, lpa := range b.P2L {
		if lpa < 0 {
			continue
		}
		z, idx := p/stride, p%stride
		zn := &d.zones[z]
		if idx >= zn.wp {
			return fmt.Errorf("zns: lpa %d at zone %d idx %d beyond wp %d", lpa, z, idx, zn.wp)
		}
		if m, _ := b.Lookup(lpa); m.DataLen != zn.lens[idx] {
			return fmt.Errorf("zns: lpa %d length %d disagrees with zone record %d", lpa, m.DataLen, zn.lens[idx])
		}
	}
	for z := range d.zones {
		zn, u := &d.zones[z], &b.Units[z]
		if u.Programmed != zn.wp || u.Stale != zn.wp-u.Live || u.InUse != (zn.state == ZoneOpen || zn.state == ZoneFull) {
			return fmt.Errorf("zns: %v zone %d with wp %d has unit programmed=%d live=%d stale=%d in-use=%v",
				zn.state, z, zn.wp, u.Programmed, u.Live, u.Stale, u.InUse)
		}
	}

	// Per-zone physical state.
	for z := range d.zones {
		zn := &d.zones[z]
		if zn.state == ZoneOffline {
			for _, blk := range zn.blocks {
				info, err := b.chip.Info(blk)
				if err != nil {
					return err
				}
				if !info.Retired {
					return fmt.Errorf("zns: offline zone %d block %d not retired on chip", z, blk)
				}
				// Offline capacity is lost, not the data path: what was
				// programmed must stay readable.
				if info.NextPage > 0 {
					if _, err := b.chip.Read(blk, 0); err != nil && errors.Is(err, flash.ErrRetired) {
						return fmt.Errorf("zns: offline zone %d block %d refuses reads: %v", z, blk, err)
					}
				}
			}
			continue
		}
		cursors := 0
		capacity := 0
		for i, blk := range zn.blocks {
			info, err := b.chip.Info(blk)
			if err != nil {
				return err
			}
			if info.Retired {
				return fmt.Errorf("zns: %v zone %d contains retired block %d", zn.state, z, blk)
			}
			cursors += info.NextPage
			pages, err := b.chip.PagesIn(blk)
			if err != nil {
				return err
			}
			if zn.pages[i] != pages {
				return fmt.Errorf("zns: %v zone %d caches %d pages for block %d, chip has %d", zn.state, z, zn.pages[i], blk, pages)
			}
			capacity += pages
		}
		if zn.capacity != capacity {
			return fmt.Errorf("zns: %v zone %d caches capacity %d, chip has %d", zn.state, z, zn.capacity, capacity)
		}
		if zn.wp != cursors {
			return fmt.Errorf("zns: zone %d wp %d disagrees with chip cursors %d", z, zn.wp, cursors)
		}
		if zn.wp > capacity {
			return fmt.Errorf("zns: zone %d wp %d beyond capacity %d", z, zn.wp, capacity)
		}
		if len(zn.lens) != zn.wp {
			return fmt.Errorf("zns: zone %d records %d lengths for wp %d", z, len(zn.lens), zn.wp)
		}
		if zn.state == ZoneEmpty && zn.wp != 0 {
			return fmt.Errorf("zns: empty zone %d has wp %d", z, zn.wp)
		}
	}

	// Append targets: CheckMapping pinned each active zone's owner and
	// bin to its slot.
	for _, z := range b.Active {
		if z < 0 {
			continue
		}
		zn, id := &d.zones[z], b.Units[z].Owner
		if zn.state != ZoneOpen || zn.attr != b.attrs[id] {
			return fmt.Errorf("zns: stream %d active zone %d is %v with attribute %v, want open with %v", id, z, zn.state, zn.attr, b.attrs[id])
		}
	}
	return nil
}

// CheckInvariants implements storage.Backend over the package-level
// checker.
func (b *Backend) CheckInvariants() error { return CheckInvariants(b) }
