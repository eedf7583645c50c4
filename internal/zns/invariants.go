package zns

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/storage"
)

// CheckInvariants validates the backend's structural invariants — the
// zoned mirror of ftl.CheckInvariants. It is read-only and intended for
// tests and post-recovery verification (the torture harness); it
// assumes a quiescent backend, not one mid-crash.
//
// Checked:
//   - l2p and p2l are exact inverses; per-zone live counts match.
//   - Each zone's reclaim-policy unit mirrors it: programmed pages equal
//     the write pointer, stale pages the rest of them, and in-use means
//     open or full.
//   - Mapped pages live below their zone's write pointer with
//     consistent recorded lengths.
//   - Each online zone's cached layout (per-block page counts and
//     capacity) matches the chip's page counts.
//   - Write-pointer monotonicity: each zone's wp equals the sum of its
//     blocks' program cursors and never exceeds capacity.
//   - Empty zones hold no live data and no programmed pages.
//   - Offline zones hold no live data, their blocks carry the durable
//     retired marker, and their programmed pages remain readable.
//   - No online zone contains a retired block.
//   - Append targets are open zones owned by the right stream.
func CheckInvariants(b *Backend) error {
	d := b.dev
	// Mapping tables are inverses.
	live := 0
	liveCount := make([]int, len(d.zones))
	for lpa := int64(0); lpa < int64(len(b.L2P)); lpa++ {
		m := b.L2P[lpa]
		if m.DataLen == 0 {
			continue
		}
		live++
		if m.Unit < 0 || m.Unit >= len(d.zones) {
			return fmt.Errorf("zns: lpa %d maps to zone %d of %d", lpa, m.Unit, len(d.zones))
		}
		zn := &d.zones[m.Unit]
		if zn.state != ZoneOpen && zn.state != ZoneFull {
			return fmt.Errorf("zns: lpa %d lives in %v zone %d", lpa, zn.state, m.Unit)
		}
		if m.Index < 0 || m.Index >= zn.wp {
			return fmt.Errorf("zns: lpa %d at zone %d idx %d beyond wp %d", lpa, m.Unit, m.Index, zn.wp)
		}
		if m.DataLen != zn.lens[m.Index] {
			return fmt.Errorf("zns: lpa %d length %d disagrees with zone record %d", lpa, m.DataLen, zn.lens[m.Index])
		}
		if int(m.Stream) < 0 || int(m.Stream) >= len(b.streams) {
			return fmt.Errorf("zns: lpa %d on unknown stream %d", lpa, m.Stream)
		}
		idx := b.PageIndex(m.Unit, m.Index)
		if idx < 0 || idx >= len(b.P2L) {
			return fmt.Errorf("zns: lpa %d (zone %d idx %d) outside the physical address space", lpa, m.Unit, m.Index)
		}
		if back := b.P2L[idx]; back != lpa {
			return fmt.Errorf("zns: l2p/p2l disagree at lpa %d (zone %d idx %d)", lpa, m.Unit, m.Index)
		}
		liveCount[m.Unit]++
	}
	if live != b.MappedPages() {
		return fmt.Errorf("zns: mapped count %d but %d live l2p entries", b.MappedPages(), live)
	}
	reverse := 0
	for idx, lpa := range b.P2L {
		if lpa < 0 {
			continue
		}
		reverse++
		zone, zidx := idx/b.zcap, idx%b.zcap
		if lpa >= int64(len(b.L2P)) || b.L2P[lpa].DataLen == 0 {
			return fmt.Errorf("zns: p2l entry zone %d idx %d -> lpa %d has no live forward mapping", zone, zidx, lpa)
		}
		if m := b.L2P[lpa]; m.Unit != zone || m.Index != zidx {
			return fmt.Errorf("zns: p2l entry zone %d idx %d -> lpa %d has no matching l2p", zone, zidx, lpa)
		}
	}
	if reverse != live {
		return fmt.Errorf("zns: l2p has %d live entries, p2l has %d", live, reverse)
	}
	for z := range d.zones {
		zn, u := &d.zones[z], &b.Units[z]
		if liveCount[z] != u.Live {
			return fmt.Errorf("zns: zone %d live count %d, mappings say %d", z, u.Live, liveCount[z])
		}
		if u.Programmed != zn.wp || u.Stale != zn.wp-u.Live || u.InUse != (zn.state == ZoneOpen || zn.state == ZoneFull) {
			return fmt.Errorf("zns: %v zone %d with wp %d has unit programmed=%d live=%d stale=%d in-use=%v",
				zn.state, z, zn.wp, u.Programmed, u.Live, u.Stale, u.InUse)
		}
	}

	// Per-zone physical state.
	for z := range d.zones {
		zn := &d.zones[z]
		if zn.state == ZoneOffline {
			if b.Units[z].Live != 0 {
				return fmt.Errorf("zns: offline zone %d holds %d live pages", z, b.Units[z].Live)
			}
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
		if zn.state == ZoneEmpty {
			if zn.wp != 0 {
				return fmt.Errorf("zns: empty zone %d has wp %d", z, zn.wp)
			}
			if b.Units[z].Live != 0 {
				return fmt.Errorf("zns: empty zone %d holds %d live pages", z, b.Units[z].Live)
			}
		}
	}

	// Append targets: active is indexed per (stream, bin) slot.
	for slot, z := range b.Active {
		if z < 0 {
			continue
		}
		id := slot / storage.NumLifetimeHints
		h := storage.LifetimeHint(slot % storage.NumLifetimeHints)
		if z >= len(d.zones) {
			return fmt.Errorf("zns: stream %d/%v active zone %d out of range", id, h, z)
		}
		zn := &d.zones[z]
		if zn.state != ZoneOpen {
			return fmt.Errorf("zns: stream %d/%v active zone %d is %v", id, h, z, zn.state)
		}
		u := &b.Units[z]
		if u.Owner != storage.StreamID(id) {
			return fmt.Errorf("zns: stream %d/%v active zone %d owned by stream %d", id, h, z, u.Owner)
		}
		if u.Bin != h {
			return fmt.Errorf("zns: stream %d/%v active zone %d holds bin %v", id, h, z, u.Bin)
		}
		if zn.attr != b.attrs[id] {
			return fmt.Errorf("zns: stream %d/%v active zone %d has attribute %v, want %v", id, h, z, zn.attr, b.attrs[id])
		}
		if u.Condemned {
			return fmt.Errorf("zns: stream %d/%v active zone %d is condemned", id, h, z)
		}
	}
	return nil
}

// CheckInvariants implements storage.Backend over the package-level
// checker.
func (b *Backend) CheckInvariants() error { return CheckInvariants(b) }
