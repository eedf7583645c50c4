package ftl

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// Reclamation is the shared policy of storage.Reclaimer over blocks.
// What stays here is what only a block-managing FTL does: static wear
// leveling, erase-time resuscitation and retirement, and the hooks the
// policy calls.

// unitOps answers the shared reclaim policy's questions about blocks
// (storage.UnitOps), keeping the hooks off the FTL's own method set.
type unitOps struct{ *FTL }

// FreeUnits returns the free-pool size.
func (o unitOps) FreeUnits() int { return len(o.freePool) }

// Wear returns in-use block b's wear fraction from its allocation
// snapshot.
func (o unitOps) Wear(b int) (float64, error) { return o.blocks[b].info.WearFrac, nil }

// PageAddr returns the chip address of page p of block b: a block is
// its own erase unit.
func (o unitOps) PageAddr(b, p int) (PPA, error) { return PPA{Block: b, Page: p}, nil }

// Remap programs a relocated page into its destination stream's active
// block for the page's bin (dipping into the reserve, never running
// GC), then supersedes the old copy.
func (o unitOps) Remap(lpa int64, old storage.Mapping, mv storage.Moved, tag flash.PageTag) error {
	b, page, err := o.program(mv.Stored, mv.StoredLen, tag, storage.MaxProgramAttempts, false)
	if err != nil {
		return err
	}
	o.invalidate(old)
	old.Unit, old.Index, old.Stream, old.BaseFlips = b, page, StreamID(tag.Stream), mv.BaseFlips
	o.SetMapping(lpa, old)
	return nil
}

// Reset erases a drained block and applies the wear policy.
func (o unitOps) Reset(b int) error { return o.eraseAndFree(b) }

// Level runs static wear leveling for the stream a GC pass served.
func (o unitOps) Level(prefer StreamID) { o.maybeStaticWL(prefer) }

// staticWLGapFrac is the wear spread (as a fraction of rated endurance)
// within a wear-leveled stream that triggers static wear leveling:
// relocating cold data off the least-worn block so it rejoins rotation.
const staticWLGapFrac = 0.25

// staticWLCheckEvery limits the allocation path (writableActive) to one
// static WL check per this many block allocations. It does not bound
// the checks unitOps.Level makes after every GC pass.
const staticWLCheckEvery = 16

// maybeStaticWL performs one static wear-leveling move for the stream if
// its wear spread is excessive. Non-wear-leveled streams never run it —
// that is the paper's deliberate SPARE policy (§4.3, [73]).
func (f *FTL) maybeStaticWL(id StreamID) {
	if id < 0 || int(id) >= len(f.streams) || !f.streams[id].WearLeveling {
		return
	}
	if len(f.freePool) <= f.reserve {
		return // no headroom for voluntary moves
	}
	coldest, hottest := -1, -1
	var coldPEC, hotPEC int
	rated := 0
	for b := range f.Units {
		u := &f.Units[b]
		if !u.InUse || u.Owner != id || u.Pending > 0 || f.IsActive(b) {
			continue
		}
		info := &f.blocks[b].info
		rated = info.RatedPEC
		if coldest < 0 || info.PEC < coldPEC {
			// Only fully-live cold blocks matter: blocks with stale
			// pages are reachable through normal GC already.
			if u.Live > 0 && u.Stale == 0 {
				coldest = b
				coldPEC = info.PEC
			}
		}
		if hottest < 0 || info.PEC > hotPEC {
			hottest = b
			hotPEC = info.PEC
		}
	}
	if coldest < 0 || hottest < 0 || rated == 0 {
		return
	}
	if float64(hotPEC-coldPEC) < staticWLGapFrac*float64(rated) {
		return
	}
	if err := f.Reclaim(coldest); err == nil {
		f.GCRuns++
		f.staticWLMoves++
	}
}

// relocTarget returns a writable block for relocation in the
// destination's (stream, bin) slot without triggering recursive GC; it
// may dip into the reserve.
func (f *FTL) relocTarget(id StreamID, h storage.LifetimeHint) (int, error) {
	if b := f.activeWritable(id, h); b >= 0 {
		return b, nil
	}
	return f.allocBlock(id, h)
}

// eraseAndFree erases a fully-invalidated block, then applies the wear
// policy: healthy blocks return to the free pool; worn blocks are
// resuscitated down the stream's density ladder or retired.
func (f *FTL) eraseAndFree(b int) error {
	u := &f.Units[b]
	if u.Live != 0 {
		return fmt.Errorf("ftl: erasing block %d with %d live pages", b, u.Live)
	}
	owner := u.Owner
	if err := f.chip.Erase(b); err != nil {
		if !errors.Is(err, flash.ErrEraseFail) {
			// Not a wear signal (e.g. power loss from the fault
			// interposer): surface it rather than retiring a healthy
			// block on a transient condition.
			return fmt.Errorf("ftl: erase block %d: %w", b, err)
		}
		// Erase-status failure is a hard wear signal: retire immediately.
		return f.retireBlock(b)
	}
	u.InUse = false
	u.Stale = 0
	u.Programmed = 0
	u.Parks = 0
	f.Deactivate(b)
	f.obs.Record(obs.Event{Kind: obs.EvErase, Block: b, Stream: int(owner)})

	info, err := f.chip.Info(b)
	if err != nil {
		return err
	}
	if u.Condemned {
		// A program-status failure (or a quarantine) is a hard wear
		// signal: retire without trying the resuscitation ladder.
		return f.retireBlock(b)
	}
	pol := &f.streams[owner]
	retireAt := pol.WearRetireFrac
	if retireAt == 0 {
		retireAt = 1.0
	}
	if info.WearFrac >= retireAt {
		st := &f.blocks[b]
		if st.resuscIdx < len(pol.Resuscitate) {
			bits := pol.Resuscitate[st.resuscIdx]
			m, err := flash.PseudoMode(f.chip.Tech(), bits)
			if err != nil {
				return err
			}
			if err := f.chip.SetMode(b, m); err != nil {
				return fmt.Errorf("ftl: resuscitate block %d: %w", b, err)
			}
			st.resuscIdx++
			f.resuscCnt++
			f.freePool = append(f.freePool, b)
			f.NotifyCapacity()
			f.obs.Record(obs.Event{Kind: obs.EvResuscitate, Block: b, Stream: int(owner), Aux: int64(bits)})
			return nil
		}
		return f.retireBlock(b)
	}
	f.freePool = append(f.freePool, b)
	return nil
}

// retireBlock permanently removes b from service. On a real chip Retire
// only fails on a bad address; through a fault interposer it can also
// fail under power loss, in which case the FTL-side marking is undone so
// a rebuild over the surviving chip sees consistent state.
func (f *FTL) retireBlock(b int) error {
	if err := f.chip.Retire(b); err != nil {
		return fmt.Errorf("ftl: retire block %d: %w", b, err)
	}
	f.blocks[b].retired = true
	f.Units[b].InUse = false
	f.Deactivate(b)
	f.retiredCnt++
	f.NotifyCapacity()
	f.obs.Record(obs.Event{Kind: obs.EvRetire, Block: b})
	return nil
}

// Quarantine seals a block after repeated hard faults observed above the
// FTL (the device layer's retirement escalation): the block takes no
// further programs, GC drains its live pages with priority, and it
// retires at erase time — the same discipline as a program-status
// failure. Quarantining a free-pool or unallocated block retires it
// immediately.
func (f *FTL) Quarantine(b int) error {
	defer f.FlushCapacity()
	if b < 0 || b >= len(f.blocks) {
		return fmt.Errorf("ftl: quarantine block %d: %w", b, flash.ErrBadAddress)
	}
	if f.blocks[b].retired {
		return nil
	}
	if !f.Units[b].InUse {
		// Nothing to drain: drop it from the free pool and retire.
		for i, fb := range f.freePool {
			if fb == b {
				f.freePool = append(f.freePool[:i], f.freePool[i+1:]...)
				break
			}
		}
		return f.retireBlock(b)
	}
	f.sealBlock(b)
	f.obs.Record(obs.Event{Kind: obs.EvQuarantine, Block: b, Stream: int(f.Units[b].Owner)})
	return nil
}

// UsablePages returns the number of physical pages on non-retired blocks
// in their current operating modes, minus the over-provisioning reserve.
// The device layer derives its advertised (possibly shrinking) capacity
// from this — the paper's capacity variance (§4.3).
func (f *FTL) UsablePages() int {
	total := 0
	for b := range f.blocks {
		if f.blocks[b].retired {
			continue
		}
		pages, err := f.chip.PagesIn(b)
		if err != nil {
			continue
		}
		total += pages
	}
	total -= f.reserve * f.chip.Geometry().PagesPerBlock
	if total < 0 {
		total = 0
	}
	return total
}

// Stats returns a telemetry snapshot.
func (f *FTL) Stats() Stats {
	st := f.Reclaimer.Stats()
	st.Retired = f.retiredCnt
	st.Resuscitated = f.resuscCnt
	st.StaticWLMoves = f.staticWLMoves
	st.FreeBlocks = len(f.freePool)
	return st
}
