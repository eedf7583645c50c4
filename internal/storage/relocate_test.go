package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sos/internal/ecc"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// TestRelocationMove pins the shared relocation step for every kind of
// source read: salvage, surfaced errors, accounting pages, repaired and
// unrepairable Reed–Solomon payloads, and Hamming's padding.
func TestRelocationMove(t *testing.T) {
	rs := ecc.MustRSScheme(223, 32) // corrects 16 bytes per 255-byte shard
	spare := &storage.StreamPolicy{Name: "spare", Scheme: ecc.DetectOnly{}}
	sys := &storage.StreamPolicy{Name: "sys", Scheme: rs}
	original := make([]byte, 300) // two RS shards: 223 + 77 data bytes
	for i := range original {
		original[i] = byte(i*7 + 3)
	}
	encode := func(s ecc.Scheme, data []byte) []byte {
		t.Helper()
		out, err := s.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// corrupt returns the RS page with n bytes of its first shard's data
	// flipped.
	corrupt := func(n int) []byte {
		page := encode(rs, original)
		for i := 0; i < n; i++ {
			page[i*11] ^= 0xa5
		}
		return page
	}
	readFault := fmt.Errorf("fault: injected read fault at op 9: %w", flash.ErrReadFault)
	const base = 5

	tests := []struct {
		name      string
		op        flash.ReadOp
		src       *storage.StreamPolicy
		dst       ecc.Scheme
		dataLen   int
		wantErr   error
		want      storage.Moved
		checkData func(t *testing.T, stored []byte)
	}{
		{
			name: "approximate read fault salvages",
			op:   flash.ReadOp{Err: readFault}, src: spare, dst: rs, dataLen: 300,
			want: storage.Moved{StoredLen: rs.Overhead(300), BaseFlips: base + 8*300, Salvaged: true},
		},
		{
			name: "protected read fault surfaces",
			op:   flash.ReadOp{Err: readFault}, src: sys, dst: rs, dataLen: 300,
			wantErr: readFault,
		},
		{
			name: "non-fault read error surfaces",
			op:   flash.ReadOp{Err: flash.ErrNotWritten}, src: spare, dst: rs, dataLen: 300,
			wantErr: flash.ErrNotWritten,
		},
		{
			name: "accounting page crystallizes flips",
			op:   flash.ReadOp{Res: flash.ReadResult{DataLen: 304, FlippedTotal: 17}}, src: spare, dst: ecc.None{}, dataLen: 300,
			want: storage.Moved{StoredLen: 300, BaseFlips: base + 17},
		},
		{
			name: "rs page within budget is repaired",
			op:   flash.ReadOp{Res: flash.ReadResult{Data: corrupt(16)}}, src: sys, dst: ecc.DetectOnly{}, dataLen: 300,
			want: storage.Moved{StoredLen: 304, BaseFlips: base},
			checkData: func(t *testing.T, stored []byte) {
				if !bytes.Equal(stored, encode(ecc.DetectOnly{}, original)) {
					t.Fatal("repaired copy differs from a fresh encode of the original")
				}
			},
		},
		{
			name: "rs page past budget crystallizes",
			op:   flash.ReadOp{Res: flash.ReadResult{Data: corrupt(17)}}, src: sys, dst: ecc.None{}, dataLen: 300,
			want: storage.Moved{StoredLen: 300, BaseFlips: base, Degraded: true},
			checkData: func(t *testing.T, stored []byte) {
				for i := 0; i < 17; i++ {
					if stored[i*11] != original[i*11]^0xa5 {
						t.Fatalf("copy byte %d = %#x, want the corrupt %#x", i*11, stored[i*11], original[i*11]^0xa5)
					}
				}
				if !bytes.Equal(stored[223:], original[223:]) {
					t.Fatal("clean second shard changed in the copy")
				}
			},
		},
		{
			name: "hamming destination pads",
			op:   flash.ReadOp{Res: flash.ReadResult{Data: encode(ecc.DetectOnly{}, original[:13])}}, src: spare, dst: ecc.HammingScheme{}, dataLen: 13,
			want: storage.Moved{StoredLen: ecc.StoredLen(ecc.HammingScheme{}, 13), BaseFlips: base},
			checkData: func(t *testing.T, stored []byte) {
				padded := make([]byte, 16)
				copy(padded, original[:13])
				if !bytes.Equal(stored, encode(ecc.HammingScheme{}, padded)) {
					t.Fatal("hamming copy is not the encode of the zero-padded payload")
				}
			},
		},
	}
	var r storage.Relocation
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := r.Move(&tc.op, tc.src, tc.dst, tc.dataLen, base)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			stored := got.Stored
			got.Stored = nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("moved %+v, want %+v", got, tc.want)
			}
			if tc.checkData == nil {
				if stored != nil {
					t.Fatalf("accounting move carries %d stored bytes", len(stored))
				}
				return
			}
			if len(stored) != tc.want.StoredLen {
				t.Fatalf("stored %d bytes, StoredLen %d", len(stored), tc.want.StoredLen)
			}
			tc.checkData(t, stored)
		})
	}
}

// TestRelocationReadMatchesPerPageReads pins the relocation reader
// against the per-page reads it replaces: over a fault injector with a
// read-fault window, per-block runs plus one-page retries return the
// same results and retry count, and leave the chip in the same state,
// as Read calls in the same order on an identically seeded chip.
func TestRelocationReadMatchesPerPageReads(t *testing.T) {
	const attempts = 3 // the relocation reader's bound on reads per page
	pages := []storage.PPA{{Block: 0, Page: 0}, {Block: 0, Page: 1}, {Block: 0, Page: 2}, {Block: 1, Page: 0}, {Block: 1, Page: 1}, {Block: 1, Page: 2}}
	build := func() (*flash.Chip, *fault.Injector) {
		clock := &sim.Clock{}
		chip, err := flash.NewChip(flash.ChipConfig{
			Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 4},
			Tech:     flash.PLC,
			Clock:    clock,
			Seed:     21,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			data := bytes.Repeat([]byte{byte(p.Block*16 + p.Page + 1)}, 400)
			if err := chip.ProgramTagged(p.Block, p.Page, data, 0, flash.PageTag{}); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(2 * sim.Year) // enough retention for raw flips
		// The first reads of pages 4 and 5 fault, then page 4's two
		// retries fault too: it exhausts its attempts, page 5 recovers.
		inj := fault.New(chip, fault.Plan{ReadFaultWindow: fault.Window{From: 5, To: 9}})
		return chip, inj
	}

	runChip, runInj := build()
	var r storage.Relocation
	r.Reset()
	for i, p := range pages {
		r.Add(int64(i), p, ecc.None{}, 400)
	}
	retries := r.Read(runInj)

	refChip, refInj := build()
	res := make([]flash.ReadResult, len(pages))
	errs := make([]error, len(pages))
	for k, p := range pages {
		res[k], errs[k] = refInj.Read(p.Block, p.Page)
		res[k].Data = bytes.Clone(res[k].Data)
	}
	var refRetries int64
	for k, p := range pages {
		for a := 1; errs[k] != nil && errors.Is(errs[k], flash.ErrReadFault) && a < attempts; a++ {
			refRetries++
			res[k], errs[k] = refInj.Read(p.Block, p.Page)
			res[k].Data = bytes.Clone(res[k].Data)
		}
	}

	if retries != refRetries || retries != 3 {
		t.Fatalf("retries = %d, per-page reads retried %d (want 3)", retries, refRetries)
	}
	flips := 0
	for k := range pages {
		lpa, op := r.Page(k)
		if lpa != int64(k) {
			t.Fatalf("page %d carries lpa %d", k, lpa)
		}
		if fmt.Sprint(op.Err) != fmt.Sprint(errs[k]) {
			t.Fatalf("page %d: err %v, per-page read %v", k, op.Err, errs[k])
		}
		if !bytes.Equal(op.Res.Data, res[k].Data) || op.Res.FlippedTotal != res[k].FlippedTotal || op.Res.FlippedNew != res[k].FlippedNew {
			t.Fatalf("page %d: result differs from the per-page read", k)
		}
		flips += op.Res.FlippedTotal
	}
	if flips == 0 {
		t.Fatal("no raw flips drawn; the comparison does not exercise the RNG stream")
	}
	if errs[4] == nil || errs[5] != nil {
		t.Fatalf("fault window missed its pages: %v / %v", errs[4], errs[5])
	}
	if runChip.Stats() != refChip.Stats() || runInj.FaultStats() != refInj.FaultStats() {
		t.Fatalf("chip state diverged:\nruns:     %+v %+v\nper-page: %+v %+v", runChip.Stats(), runInj.FaultStats(), refChip.Stats(), refInj.FaultStats())
	}
	r.Release(runInj)
	for k := range pages {
		if _, op := r.Page(k); op.Dst != nil || op.Res.Data != nil {
			t.Fatalf("page %d still references a released buffer", k)
		}
	}
}
