package ecc

import (
	"bytes"
	"errors"
	"testing"

	"sos/internal/sim"
)

func TestNoneScheme(t *testing.T) {
	var s None
	data := []byte{1, 2, 3}
	stored, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if &stored[0] == &data[0] {
		t.Fatal("Encode must copy, not alias")
	}
	stored[1] = 99
	got, corrected, err := s.Decode(stored)
	if err != nil || corrected != 0 {
		t.Fatalf("decode: %v", err)
	}
	if got[1] != 99 {
		t.Fatal("None must pass degradation through")
	}
	if s.Overhead(100) != 100 {
		t.Fatal("None overhead")
	}
}

func TestDetectOnlyScheme(t *testing.T) {
	var s DetectOnly
	data := []byte("hello degradation")
	stored, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(data)+4 {
		t.Fatalf("stored length %d", len(stored))
	}
	got, _, err := s.Decode(stored)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean decode failed: %v", err)
	}
	// Corrupt one byte: must be detected AND data still returned.
	stored[3] ^= 0x40
	got, _, err = s.Decode(stored)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("corruption not detected: %v", err)
	}
	if got == nil || len(got) != len(data) {
		t.Fatal("degraded data not returned to approximate consumer")
	}
	if _, _, err := s.Decode([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestHammingSchemeAlignment(t *testing.T) {
	var s HammingScheme
	if _, err := s.Encode(make([]byte, 12)); err == nil {
		t.Fatal("unaligned data accepted")
	}
	data := make([]byte, 16)
	stored, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != s.Overhead(16) {
		t.Fatalf("overhead mismatch: %d vs %d", len(stored), s.Overhead(16))
	}
}

func TestRSSchemeRoundtrip(t *testing.T) {
	s, err := NewRSScheme(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	data := make([]byte, 300) // spans 5 shards, last one short
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	stored, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != s.Overhead(len(data)) {
		t.Fatalf("overhead: %d vs %d", len(stored), s.Overhead(len(data)))
	}
	// Scatter correctable errors: up to 8 per 80-byte shard. Put 3 in
	// each shard region.
	for shard := 0; shard*80 < len(stored); shard++ {
		base := shard * 80
		limit := base + 80
		if limit > len(stored) {
			limit = len(stored)
		}
		for k := 0; k < 3; k++ {
			p := base + rng.Intn(limit-base)
			stored[p] ^= byte(1 + rng.Intn(255))
		}
	}
	got, corrected, err := s.Decode(stored)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if corrected == 0 {
		t.Fatal("no corrections reported")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RS scheme roundtrip mismatch")
	}
}

func TestRSSchemeOverloadStillReturnsData(t *testing.T) {
	s, _ := NewRSScheme(32, 4) // t=2 per shard
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	stored, _ := s.Encode(data)
	// Destroy the first shard far beyond budget.
	for i := 0; i < 20; i++ {
		stored[i] ^= 0x55
	}
	got, _, err := s.Decode(stored)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("overload not reported: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("degraded data truncated: %d bytes", len(got))
	}
	// Second shard was untouched and must be intact.
	if !bytes.Equal(got[32:], data[32:]) {
		t.Fatal("healthy shard corrupted by decoder")
	}
}

func TestRSSchemeGeometryValidation(t *testing.T) {
	if _, err := NewRSScheme(0, 16); err == nil {
		t.Error("zero shard accepted")
	}
	if _, err := NewRSScheme(250, 16); err == nil {
		t.Error("oversized shard accepted")
	}
	if _, err := NewRSScheme(10, 300); err == nil {
		t.Error("oversized parity accepted")
	}
}

func TestMustRSSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRSScheme did not panic on bad geometry")
		}
	}()
	MustRSScheme(0, 0)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "crc32c", "hamming", "rs-light", "rs-strong"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s == nil {
			t.Errorf("ByName(%q) returned nil scheme", name)
		}
	}
	if _, err := ByName("ldpc"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	s := MustRSScheme(223, 32)
	if s.Name() != "rs(255,223)" {
		t.Fatalf("RS name = %q", s.Name())
	}
	if (None{}).Name() != "none" || (DetectOnly{}).Name() != "crc32c" {
		t.Fatal("scheme names changed")
	}
}

func TestRSSchemeEmptyPayload(t *testing.T) {
	s := MustRSScheme(64, 16)
	if _, err := s.Encode(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// TestEncodeIntoMatchesEncode pins the EncodeInto contract for every
// configured scheme: it writes exactly StoredLen bytes, the same bytes
// Encode produces (for Hamming, from the payload zero-padded to a whole
// word), rejects a destination one byte short, and allocates nothing.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	schemes := []Scheme{None{}, DetectOnly{}, HammingScheme{}, MustRSScheme(239, 16), MustRSScheme(223, 32)}
	lengths := []int{4096}
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	for _, s := range schemes {
		dst := make([]byte, StoredLen(s, 4096))
		for _, n := range lengths {
			data := payload[:n]
			want := data
			if _, ok := s.(HammingScheme); ok {
				want = make([]byte, (n+7)&^7)
				copy(want, data)
			}
			enc, err := s.Encode(want)
			if err != nil {
				t.Fatalf("%s len %d: Encode: %v", s.Name(), n, err)
			}
			need := StoredLen(s, n)
			got, err := s.EncodeInto(dst[:need], data)
			if err != nil || got != need {
				t.Fatalf("%s len %d: EncodeInto = %d, %v; want %d", s.Name(), n, got, err, need)
			}
			if !bytes.Equal(dst[:got], enc) {
				t.Fatalf("%s len %d: EncodeInto bytes differ from Encode", s.Name(), n)
			}
			if _, err := s.EncodeInto(dst[:need-1], data); err == nil {
				t.Fatalf("%s len %d: destination one byte short accepted", s.Name(), n)
			}
			if allocs := testing.AllocsPerRun(5, func() {
				if _, err := s.EncodeInto(dst[:need], data); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%s len %d: EncodeInto allocates %.1f times", s.Name(), n, allocs)
			}
		}
	}
}
