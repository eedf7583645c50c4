package device

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"sos/internal/flash"
	"sos/internal/storage"
)

// Recover over corrupt OOB images. A rebuild must never panic and never
// install a tag the read path cannot serve: a tag naming an unknown
// stream, an LPA outside 0..storage.MaxLPA, a payload length outside
// 1..page size or a zero serial marks its page garbage, exactly like an
// untagged page.

// TestRecoverDropsInvalidTags programs one tagged page onto a fresh
// backend's medium and recovers. Every invalid tag must recover
// without error, pass CheckInvariants and leave its LPA unmapped; the
// valid control row must be mapped.
func TestRecoverDropsInvalidTags(t *testing.T) {
	valid := flash.PageTag{LPA: 5, Stream: 0, DataLen: 64, Serial: 1}
	rows := []struct {
		name   string
		tag    func(*flash.PageTag)
		mapped bool
	}{
		{"valid", func(*flash.PageTag) {}, true},
		{"unknown stream", func(tg *flash.PageTag) { tg.Stream = 7 }, false},
		{"negative lpa", func(tg *flash.PageTag) { tg.LPA = -3 }, false},
		{"lpa at MaxLPA", func(tg *flash.PageTag) { tg.LPA = storage.MaxLPA }, true},
		{"lpa past MaxLPA", func(tg *flash.PageTag) { tg.LPA = storage.MaxLPA + 1 }, false},
		{"lpa 1<<62", func(tg *flash.PageTag) { tg.LPA = 1 << 62 }, false},
		{"zero length", func(tg *flash.PageTag) { tg.DataLen = 0 }, false},
		{"negative length", func(tg *flash.PageTag) { tg.DataLen = -7 }, false},
		{"length past the page", func(tg *flash.PageTag) { tg.DataLen = modelPageSize + 1 }, false},
		{"zero serial", func(tg *flash.PageTag) { tg.Serial = 0 }, false},
	}
	for _, kind := range storage.Kinds() {
		for _, row := range rows {
			t.Run(kind.String()+"/"+row.name, func(t *testing.T) {
				m := newModelRun(t, kind)
				tag := valid
				row.tag(&tag)
				if err := m.chip.ProgramTagged(0, 0, nil, 96, tag); err != nil {
					t.Fatal(err)
				}
				be, err := m.be.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if err := be.CheckInvariants(); err != nil {
					t.Fatalf("invariants: %v", err)
				}
				_, err = be.Read(tag.LPA)
				if row.mapped {
					if err != nil || be.MappedPages() != 1 {
						t.Fatalf("valid tag: read %v, %d mapped", err, be.MappedPages())
					}
					return
				}
				if !errors.Is(err, storage.ErrUnknownLPA) || be.MappedPages() != 0 {
					t.Fatalf("invalid tag installed: read %v, %d mapped", err, be.MappedPages())
				}
			})
		}
	}
}

// TestRecoverElectsNewestThenFirstSeen pins the rebuild election on
// both backends: of two valid tags for one LPA, the higher serial wins
// wherever it lies, and of equal serials the copy the scan meets first
// (block 0, before block 2) wins.
func TestRecoverElectsNewestThenFirstSeen(t *testing.T) {
	rows := []struct {
		name    string
		serials [2]uint64
		want    int // winning block
	}{
		{"newer second", [2]uint64{1, 2}, 2},
		{"newer first", [2]uint64{2, 1}, 0},
		{"equal serials", [2]uint64{3, 3}, 0},
	}
	for _, kind := range storage.Kinds() {
		for _, row := range rows {
			t.Run(kind.String()+"/"+row.name, func(t *testing.T) {
				m := newModelRun(t, kind)
				for i, blk := range []int{0, 2} {
					tag := flash.PageTag{LPA: 5, Stream: 0, DataLen: 64, Serial: row.serials[i]}
					if err := m.chip.ProgramTagged(blk, 0, nil, 96, tag); err != nil {
						t.Fatal(err)
					}
				}
				be, err := m.be.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if err := be.CheckInvariants(); err != nil {
					t.Fatalf("invariants: %v", err)
				}
				ppa, _, _, ok := be.Locate(5)
				if !ok || ppa.Block != row.want || be.MappedPages() != 1 {
					t.Fatalf("lpa 5 at %v (mapped %v, %d in all), want block %d", ppa, ok, be.MappedPages(), row.want)
				}
			})
		}
	}
}

// recoverLPAs bounds FuzzRecover's near tag LPAs to (-recoverLPAs,
// recoverLPAs), so the check can read every one of them; far LPAs come
// from farLPAs.
const recoverLPAs = 32

// farLPAs are the LPAs a FuzzRecover record's 0x40 flag picks from: the
// last one the table maps and three it must refuse.
var farLPAs = [4]int64{storage.MaxLPA, storage.MaxLPA + 1, 1 << 62, math.MaxInt64}

// recoverProbes lists every LPA a FuzzRecover record can name.
var recoverProbes = func() []int64 {
	var lpas []int64
	for lpa := int64(-recoverLPAs); lpa < recoverLPAs; lpa++ {
		lpas = append(lpas, lpa)
	}
	return append(lpas, farLPAs[:]...)
}()

// FuzzRecover programs fuzzed pages onto the model chip of a fresh
// backend, then recovers it. Each 8-byte record programs the next page
// of one block:
//
//	[0] block  [1] LPA (int8 mod 32, or farLPAs[[1]&3] under 0x40)
//	[2] stream  [3:5] DataLen (int16 mod 1024)  [5] serial  [6] hint in
//	the low nibble, 0x10 untagged, 0x20 stores payload bytes, 0x40 far
//	LPA  [7] digest; stored length 1+2*[7]
//
// Recovery must not panic, and must either fail or yield a state that
// passes CheckInvariants and reads every mapped LPA. Its committed seeds
// (testdata/fuzz/FuzzRecover) include every TestRecoverDropsInvalidTags
// tag and one record per far LPA.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 8<<10 {
			in = in[:8<<10]
		}
		for _, kind := range storage.Kinds() {
			m := newModelRun(t, kind)
			programRecords(m.chip, in)
			be, err := m.be.Recover()
			if err != nil {
				continue
			}
			if err := be.CheckInvariants(); err != nil {
				t.Fatalf("%v: invariants after recover: %v", kind, err)
			}
			mapped := 0
			for _, lpa := range recoverProbes {
				_, err := be.Read(lpa)
				if !be.Contains(lpa) {
					if !errors.Is(err, storage.ErrUnknownLPA) {
						t.Fatalf("%v: unmapped lpa %d reads %v", kind, lpa, err)
					}
					continue
				}
				mapped++
				if err != nil {
					t.Fatalf("%v: mapped lpa %d: %v", kind, lpa, err)
				}
			}
			if mapped != be.MappedPages() {
				t.Fatalf("%v: %d probed LPAs mapped, backend maps %d", kind, mapped, be.MappedPages())
			}
		}
	})
}

// programRecords applies FuzzRecover's records to chip; a program the
// chip refuses (a full block, an oversized page) is skipped.
func programRecords(chip *flash.Chip, in []byte) {
	for ; len(in) >= 8; in = in[8:] {
		r := in[:8]
		b := int(r[0]) % chip.Blocks()
		info, err := chip.Info(b)
		if err != nil || info.NextPage >= info.Pages {
			continue
		}
		tag := flash.PageTag{
			LPA:       int64(int8(r[1])) % recoverLPAs,
			Stream:    r[2],
			DataLen:   int32(int16(uint16(r[3])<<8|uint16(r[4]))) % 1024,
			Serial:    uint64(r[5]),
			Hint:      r[6] & 0x0f,
			Digest:    uint64(r[7]),
			HasDigest: r[7]&1 == 1,
		}
		if r[6]&0x40 != 0 {
			tag.LPA = farLPAs[r[1]&3]
		}
		n := 1 + 2*int(r[7])
		var data []byte
		if r[6]&0x20 != 0 {
			data = payload(n, int(r[7]))
		}
		if r[6]&0x10 != 0 {
			_ = chip.Program(b, info.NextPage, data, n)
		} else {
			_ = chip.ProgramTagged(b, info.NextPage, data, n, tag)
		}
	}
}

// TestWriteLPABounds pins the LPA range on both backends: a write at
// storage.MaxLPA maps and reads back, and writes past it fail ErrBadLPA
// before anything is programmed or counted.
func TestWriteLPABounds(t *testing.T) {
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newModelRun(t, kind)
			data := payload(64, 9)
			if err := m.be.Write(storage.MaxLPA, data, 64, 0); err != nil {
				t.Fatalf("write at MaxLPA: %v", err)
			}
			res, err := m.be.Read(storage.MaxLPA)
			if err != nil || !bytes.Equal(res.Data, data) {
				t.Fatalf("read MaxLPA: %v, %d bytes", err, len(res.Data))
			}
			before := m.be.Stats()
			for _, lpa := range []int64{storage.MaxLPA + 1, 1 << 62} {
				if err := m.be.Write(lpa, data, 64, 0); !errors.Is(err, storage.ErrBadLPA) {
					t.Fatalf("write at lpa %d: %v, want ErrBadLPA", lpa, err)
				}
			}
			if after := m.be.Stats(); after.HostWrites != before.HostWrites || after.FlashPrograms != before.FlashPrograms {
				t.Fatalf("rejected writes counted: host %d -> %d, programs %d -> %d",
					before.HostWrites, after.HostWrites, before.FlashPrograms, after.FlashPrograms)
			}
			if m.be.MappedPages() != 1 {
				t.Fatalf("%d mapped, want 1", m.be.MappedPages())
			}
			if err := m.be.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
