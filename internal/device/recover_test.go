package device

import (
	"errors"
	"testing"

	"sos/internal/flash"
	"sos/internal/storage"
)

// Recover over corrupt OOB images. A rebuild must never panic and never
// install a tag the read path cannot serve: a tag naming an unknown
// stream, a negative LPA, a payload length outside 1..page size or a
// zero serial marks its page garbage, exactly like an untagged page.

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

// recoverLPAs bounds FuzzRecover's tag LPAs to (-recoverLPAs,
// recoverLPAs): the rebuild election tables are dense per LPA, so a
// huge LPA measures allocation, not recovery.
const recoverLPAs = 32

// FuzzRecover programs fuzzed pages onto the model chip of a fresh
// backend, then recovers it. Each 8-byte record programs the next page
// of one block:
//
//	[0] block  [1] LPA (int8 mod 32)  [2] stream  [3:5] DataLen (int16
//	mod 1024)  [5] serial  [6] hint in the low nibble, 0x10 untagged,
//	0x20 stores payload bytes  [7] digest; stored length 1+2*[7]
//
// Recovery must not panic, and must either fail or yield a state that
// passes CheckInvariants and reads every mapped LPA. Its committed seeds
// (testdata/fuzz/FuzzRecover) include every TestRecoverDropsInvalidTags
// tag.
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
			for lpa := int64(-recoverLPAs); lpa < recoverLPAs; lpa++ {
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
				t.Fatalf("%v: %d LPAs in range mapped, backend maps %d", kind, mapped, be.MappedPages())
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
