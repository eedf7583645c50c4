package ecc

import (
	"bytes"
	"testing"
)

// FuzzRSSchemePage drives RSScheme.DecodeInPlace over whole pages, where
// four full shards at a time share the four-shard remainder pass and
// the last 0–3 take the one-shard path. geom picks the geometry:
// geom%3 == 0 is rs-strong (223+32), 1 is rs-light (239+16), 2 takes
// nparity 1 + (geom>>2)%32 and dataShard 1 + (geom>>7)%(255-nparity).
// The payload is 1 + size%4096 bytes of xorshift output seeded by fill
// (fill 0 is a zero page), and shard k's first zeros[k] mod
// (dataShard+1) bytes are zeroed, so the shards of one pass have zero
// prefixes of different lengths. flips are (shard, position, mask)
// triples, at most nparity applied per shard. Checks:
//   - the page decode agrees on data, corrected count and error with a
//     reference loop of RS.DecodeInPlace over the shards;
//   - a shard with e <= t corrupted bytes decodes to its data with e
//     corrections;
//   - a shard with 1 <= e <= nparity corrupted bytes never reads clean,
//     and neither does the page.
func FuzzRSSchemePage(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom uint16, size uint16, fill uint64, zeros, flips []byte) {
		var s *RSScheme
		switch geom % 3 {
		case 0:
			s = MustRSScheme(223, 32)
		case 1:
			s = MustRSScheme(239, 16)
		default:
			np := 1 + int(geom>>2)%maxParity
			s = MustRSScheme(1+int(geom>>7)%(255-np), np)
		}
		rs, ds := s.rs, s.dataShard
		np, full := rs.ParityBytes(), s.dataShard+rs.ParityBytes()

		payload := make([]byte, 1+int(size)%4096)
		for i := range payload {
			fill ^= fill << 13
			fill ^= fill >> 7
			fill ^= fill << 17
			payload[i] = byte(fill)
		}
		shards := (len(payload) + ds - 1) / ds
		for k := 0; k < shards && k < len(zeros); k++ {
			span := payload[k*ds : min((k+1)*ds, len(payload))]
			clear(span[:min(int(zeros[k])%(ds+1), len(span))])
		}
		clean, err := s.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		stored := append([]byte(nil), clean...)
		applied := make([]int, shards)
		for i := 0; i+2 < len(flips); i += 3 {
			k := int(flips[i]) % shards
			if applied[k] == np {
				continue
			}
			applied[k]++
			shard := stored[k*full : min((k+1)*full, len(stored))]
			shard[int(flips[i+1])%len(shard)] ^= flips[i+2]
		}

		ref := append([]byte(nil), stored...)
		var refData []byte
		refCorrected := 0
		var refErr error
		pageClean := true
		for k := 0; k < shards; k++ {
			cw := ref[k*full : min((k+1)*full, len(ref))]
			e := 0
			for i := range cw {
				if cw[i] != clean[k*full+i] {
					e++
				}
			}
			d, c, err := rs.DecodeInPlace(cw)
			if err != nil && refErr == nil {
				refErr = err
			}
			if e <= rs.CorrectableErrors() {
				want := payload[k*ds : min((k+1)*ds, len(payload))]
				if err != nil || c != e || !bytes.Equal(d, want) {
					t.Fatalf("%s shard %d: %d errors gave corrected=%d err=%v, data restored=%v",
						s.Name(), k, e, c, err, bytes.Equal(d, want))
				}
			}
			if e > 0 && err == nil && c == 0 {
				t.Fatalf("%s shard %d: %d corrupted bytes read clean", s.Name(), k, e)
			}
			if e > 0 {
				pageClean = false
			}
			refCorrected += c
			refData = append(refData, d...)
		}

		got, corrected, err := s.DecodeInPlace(stored)
		if !bytes.Equal(got, refData) || corrected != refCorrected || err != refErr {
			t.Fatalf("%s %d-byte page: DecodeInPlace corrected=%d err=%v, reference corrected=%d err=%v, data equal=%v",
				s.Name(), len(payload), corrected, err, refCorrected, refErr, bytes.Equal(got, refData))
		}
		if !pageClean && err == nil && corrected == 0 {
			t.Fatalf("%s %d-byte page with corrupted shards read clean", s.Name(), len(payload))
		}
	})
}
