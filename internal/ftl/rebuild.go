package ftl

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// ErrNotFresh reports that Rebuild was invoked on an FTL that has
// already served writes; power-loss recovery requires a fresh instance
// over the surviving chip (use Recover for the one-call form).
var ErrNotFresh = errors.New("ftl: rebuild requires a fresh FTL instance")

// Recover constructs a fresh FTL over the surviving medium and replays
// the OOB scan in one call — the remount path after a power loss. chip
// overrides cfg.Chip, so a stored Config can be reused verbatim across
// power cycles.
func Recover(chip Flash, cfg Config) (*FTL, error) {
	cfg.Chip = chip
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Rebuild(); err != nil {
		return nil, fmt.Errorf("ftl: recover: %w", err)
	}
	return f, nil
}

// Rebuild reconstructs an FTL's volatile state (L2P/P2L maps, per-block
// accounting, free pool, write serial) by scanning the chip's OOB page
// tags — the power-loss recovery path of a real controller. The FTL
// must have been created with New over the surviving chip and not yet
// written to.
//
// Semantics after a rebuild:
//   - every logical page written before the "crash" is mapped again,
//     with the newest copy (highest serial) winning;
//   - superseded copies are marked stale so GC can reclaim them, and
//     so are pages with no tag or a tag no write could have left
//     (storage.ValidTag);
//   - per-block wear (PEC) survives in the chip itself, and every
//     in-use block's snapshot (blockState.info) is taken from it;
//   - soft state is conservatively reset: crystallized degradation
//     estimates (baseFlips) restart at zero, program-failure seals and
//     resuscitation ladder positions are forgotten (a sealed block will
//     simply fail again and be resealed).
func (f *FTL) Rebuild() error {
	if f.MappedPages() != 0 || f.HostWrites != 0 {
		return ErrNotFresh
	}
	type winner struct {
		ppa PPA
		tag flash.PageTag
	}
	// best is a dense election table indexed by LPA, grown like l2p;
	// Serial == 0 marks an empty slot (the write serial pre-increments
	// from zero, and ValidTag turns a zero-serial tag away).
	var best []winner
	var losers []PPA

	// Pass 1: scan every written page, electing the newest copy per LPA.
	f.freePool = f.freePool[:0]
	maxSerial := uint64(0)
	for b := 0; b < f.chip.Blocks(); b++ {
		info, err := f.chip.Info(b)
		if err != nil {
			return err
		}
		f.blocks[b] = blockState{info: info}
		f.Deactivate(b)
		u := &f.Units[b]
		*u = storage.Unit{}
		if info.Retired {
			f.blocks[b].retired = true
			f.retiredCnt++
			continue
		}
		if info.NextPage == 0 {
			// Fully erased: back to the free pool.
			f.freePool = append(f.freePool, b)
			continue
		}
		u.InUse = true
		u.Programmed = info.NextPage
		for p := 0; p < info.NextPage; p++ {
			state, err := f.chip.StateOf(b, p)
			if err != nil {
				return err
			}
			if state != flash.PageWritten && state != flash.PageStale {
				continue
			}
			tag, ok, err := f.chip.Tag(b, p)
			if err != nil {
				return err
			}
			ppa := PPA{Block: b, Page: p}
			if !ok || !storage.ValidTag(tag, f.streams, f.logicalSz) {
				// Untagged page (not written by this FTL) or a tag no
				// write could have left: garbage.
				losers = append(losers, ppa)
				continue
			}
			u.Owner = StreamID(tag.Stream)
			if int(tag.Hint) < storage.NumLifetimeHints {
				u.Bin = storage.LifetimeHint(tag.Hint)
			}
			if tag.Serial > maxSerial {
				maxSerial = tag.Serial
			}
			if tag.LPA >= int64(len(best)) {
				n := 2 * int64(len(best))
				if n < tag.LPA+1 {
					n = tag.LPA + 1
				}
				grown := make([]winner, n)
				copy(grown, best)
				best = grown
			}
			if w := best[tag.LPA]; w.tag.Serial == 0 || tag.Serial > w.tag.Serial {
				if w.tag.Serial != 0 {
					losers = append(losers, w.ppa)
				}
				best[tag.LPA] = winner{ppa: ppa, tag: tag}
			} else {
				losers = append(losers, ppa)
			}
		}
	}

	// Pass 2: install winners, mark losers stale.
	for lpa := int64(0); lpa < int64(len(best)); lpa++ {
		w := best[lpa]
		if w.tag.Serial == 0 {
			continue
		}
		hint := storage.LifetimeHint(w.tag.Hint)
		if int(w.tag.Hint) >= storage.NumLifetimeHints {
			hint = storage.HintNone
		}
		f.SetMapping(lpa, storage.Mapping{
			Unit:      w.ppa.Block,
			Index:     w.ppa.Page,
			Stream:    StreamID(w.tag.Stream),
			DataLen:   int(w.tag.DataLen),
			Digest:    w.tag.Digest,
			HasDigest: w.tag.HasDigest,
			Hint:      hint,
		})
		f.Units[w.ppa.Block].Live++
	}
	for _, ppa := range losers {
		f.Units[ppa.Block].Stale++
		// The chip may still consider the page live; align its state.
		if state, err := f.chip.StateOf(ppa.Block, ppa.Page); err == nil && state == flash.PageWritten {
			if err := f.chip.MarkStale(ppa.Block, ppa.Page); err != nil {
				return err
			}
		}
	}
	f.writeSerial = maxSerial

	// Pass 3: adopt partially-filled blocks as their (stream, bin)'s
	// active block (at most one per slot; the rest stay as-is and are
	// GC-reclaimable once stale). The bin comes from the block's OOB
	// tags, so hinted placement survives the crash exactly.
	for b := 0; b < f.chip.Blocks(); b++ {
		u := &f.Units[b]
		if u.InUse && u.Programmed < f.blocks[b].info.Pages && f.Active[storage.ActiveSlot(u.Owner, u.Bin)] < 0 {
			f.Activate(b)
		}
	}
	f.obs.Record(obs.Event{Kind: obs.EvRebuild, Aux: int64(f.MappedPages())})
	return nil
}
