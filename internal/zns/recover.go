package zns

import (
	"sos/internal/obs"
	"sos/internal/storage"
)

// Recover remounts a fresh backend over the receiver's (possibly
// crash-interrupted) medium and rebuilds all host state from what the
// chip durably holds: write pointers from per-block program cursors,
// offline zones from retired blocks, and the L2P map from OOB tags with
// newest-serial-wins — torn appends lose to the previously acked copy.
func (b *Backend) Recover() (storage.Backend, error) {
	cfg := b.cfg
	cfg.Chip = b.chip
	nb, err := NewBackend(cfg)
	if err != nil {
		return nil, err
	}
	if err := nb.rebuild(); err != nil {
		return nil, err
	}
	return nb, nil
}

// rcand is a rebuild mapping candidate; its LPA and serial are in its
// election key (storage.Candidate).
type rcand struct {
	zone, idx int
	stream    storage.StreamID
	dataLen   int
	digest    uint64
	hasDigest bool
	hint      storage.LifetimeHint
}

// rebuild reconstructs zone states and the mapping tables by scanning
// the chip. The zoned analog of ftl.Rebuild.
func (nb *Backend) rebuild() error {
	d := nb.dev
	geo := nb.chip.Geometry()
	// cands holds every valid tagged page in scan order, elect their
	// election keys (storage.Elect).
	var cands []rcand
	var elect []storage.Candidate
	zmax := make([]uint64, len(d.zones)) // newest serial seen per zone
	var maxSerial uint64

	for z := range d.zones {
		zn := &d.zones[z]
		// Offline zones are recognised by their retired blocks — the
		// durable marker goOffline leaves. Retire any stragglers (a
		// crash can interrupt the marking mid-zone) and skip the scan:
		// offline zones hold no live data.
		offline := false
		for _, blk := range zn.blocks {
			info, err := nb.chip.Info(blk)
			if err != nil {
				return err
			}
			if info.Retired {
				offline = true
				break
			}
		}
		if offline {
			d.goOffline(zn)
			continue
		}
		// The write pointer is exactly the sum of the blocks' program
		// cursors: every acked append advanced both in lockstep. A
		// cursor gap — a later block programmed while an earlier one is
		// not full — cannot result from appends; it means power died
		// mid-reset, after some blocks were erased. Everything in such
		// a zone was already superseded (zones drain before reset), so
		// recovery finishes the interrupted reset.
		wp := 0
		gap, seenPartial := false, false
		for i, blk := range zn.blocks {
			info, err := nb.chip.Info(blk)
			if err != nil {
				return err
			}
			if seenPartial && info.NextPage > 0 {
				gap = true
			}
			if info.NextPage < zn.pages[i] {
				seenPartial = true
			}
			wp += info.NextPage
		}
		if gap {
			zn.state = ZoneFull
			zn.wp = 0
			zn.lens = zn.lens[:0]
			if err := d.Reset(z); err != nil {
				return err
			}
			continue
		}
		zn.wp = wp
		zn.lens = zn.lens[:0]
		if wp == 0 {
			zn.state = ZoneEmpty
			continue
		}
		sawStream := storage.StreamID(-1)
		for idx := 0; idx < wp; idx++ {
			blk, page, err := zn.locate(idx)
			if err != nil {
				return err
			}
			tag, tagged, err := nb.chip.Tag(blk, page)
			if err != nil {
				return err
			}
			dataLen := geo.PageSize
			if tagged && storage.ValidTag(tag, nb.streams, nb.logicalSz) {
				// A page programmed but never acked to the host still
				// carries its tag; the serial comparison decides whether
				// it supersedes or loses to an earlier copy.
				dataLen = int(tag.DataLen)
				sawStream = storage.StreamID(tag.Stream)
				// Zones hold a single bin by construction; any tag's hint
				// identifies the zone's bin after a crash.
				if int(tag.Hint) < storage.NumLifetimeHints {
					nb.Units[z].Bin = storage.LifetimeHint(tag.Hint)
				}
				if tag.Serial > zmax[z] {
					zmax[z] = tag.Serial
				}
				if tag.Serial > maxSerial {
					maxSerial = tag.Serial
				}
				hint := storage.LifetimeHint(tag.Hint)
				if int(tag.Hint) >= storage.NumLifetimeHints {
					hint = storage.HintNone
				}
				elect = append(elect, storage.Candidate{LPA: tag.LPA, Serial: tag.Serial, Index: int32(len(cands))})
				cands = append(cands, rcand{
					zone: z, idx: idx,
					stream: storage.StreamID(tag.Stream), dataLen: dataLen,
					digest: tag.Digest, hasDigest: tag.HasDigest,
					hint: hint,
				})
			}
			// Untagged written pages are torn garbage, and so are pages
			// whose tag no write could have left; they occupy
			// write-pointer space until the zone is reclaimed.
			zn.lens = append(zn.lens, dataLen)
		}
		// The zone's attribute: authoritative from the tags' stream,
		// else inferred from the blocks' persisted operating mode.
		if sawStream >= 0 {
			nb.Units[z].Owner = sawStream
			zn.attr = nb.attrs[sawStream]
		} else if attr, ok := nb.attrFromMode(zn.blocks[0]); ok {
			zn.attr = attr
			nb.Units[z].Owner = nb.streamForAttr(attr)
		}
		if wp >= zn.capacity {
			zn.state = ZoneFull
		} else {
			zn.state = ZoneOpen
		}
	}

	// Elect the newest copy per LPA and install the winners in LPA order.
	storage.Elect(elect)
	for i, k := range elect {
		if i > 0 && elect[i-1].LPA == k.LPA {
			continue
		}
		w := &cands[k.Index]
		nb.install(k.LPA, storage.Mapping{Unit: w.zone, Index: w.idx, Stream: w.stream, DataLen: w.dataLen, Digest: w.digest, HasDigest: w.hasDigest, Hint: w.hint})
	}
	nb.writeSerial = maxSerial
	// Every written page that lost its election (or was torn) is stale.
	for z := range d.zones {
		zn, u := &d.zones[z], &nb.Units[z]
		u.InUse = zn.state == ZoneOpen || zn.state == ZoneFull
		u.Programmed = zn.wp
		u.Stale = zn.wp - u.Live
	}

	// Adopt the most recently written partially-filled zone per
	// (stream, bin) slot as its append target; seal any other partial
	// zones. The bin comes from the zone's OOB tags, so hinted placement
	// survives the crash exactly.
	for id := range nb.streams {
		for h := 0; h < storage.NumLifetimeHints; h++ {
			hint := storage.LifetimeHint(h)
			best := -1
			var bestSerial uint64
			for z := range d.zones {
				if u := &nb.Units[z]; d.zones[z].state != ZoneOpen || u.Owner != storage.StreamID(id) || u.Bin != hint {
					continue
				}
				if best < 0 || zmax[z] > bestSerial {
					best, bestSerial = z, zmax[z]
				}
			}
			if best < 0 {
				continue
			}
			nb.Activate(best)
			for z := range d.zones {
				if u := &nb.Units[z]; z != best && d.zones[z].state == ZoneOpen && u.Owner == storage.StreamID(id) && u.Bin == hint {
					d.zones[z].state = ZoneFull
				}
			}
		}
	}
	nb.obs.Record(obs.Event{Kind: obs.EvRebuild, Aux: int64(nb.MappedPages())})
	return nil
}

// attrFromMode infers a zone's attribute from a block's persisted
// operating mode.
func (b *Backend) attrFromMode(blk int) (Attr, bool) {
	info, err := b.chip.Info(blk)
	if err != nil {
		return Durable, false
	}
	switch {
	case info.Mode == b.dev.pol[Durable].Mode:
		return Durable, true
	case info.Mode == b.dev.pol[Approximate].Mode:
		return Approximate, true
	}
	return Durable, false
}

// streamForAttr returns the first stream mapped to the attribute.
func (b *Backend) streamForAttr(a Attr) storage.StreamID {
	for i, sa := range b.attrs {
		if sa == a {
			return storage.StreamID(i)
		}
	}
	return 0
}
