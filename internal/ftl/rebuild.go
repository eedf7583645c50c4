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
	// cands holds every valid tagged page in scan order, elect their
	// election keys (storage.Elect).
	type cand struct {
		ppa PPA
		tag flash.PageTag
	}
	var cands []cand
	var elect []storage.Candidate
	var losers []PPA

	// Pass 1: scan every written page, collecting the candidates.
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
			elect = append(elect, storage.Candidate{LPA: tag.LPA, Serial: tag.Serial, Index: int32(len(cands))})
			cands = append(cands, cand{ppa: ppa, tag: tag})
		}
	}

	// Pass 2: elect the newest copy per LPA, install the winners in LPA
	// order and mark the losers stale.
	storage.Elect(elect)
	for i, k := range elect {
		w := &cands[k.Index]
		if i > 0 && elect[i-1].LPA == k.LPA {
			losers = append(losers, w.ppa)
			continue
		}
		hint := storage.LifetimeHint(w.tag.Hint)
		if int(w.tag.Hint) >= storage.NumLifetimeHints {
			hint = storage.HintNone
		}
		f.SetMapping(w.tag.LPA, storage.Mapping{
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
