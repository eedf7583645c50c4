package ecc

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzHammingScheme drives the Hamming scheme with arbitrary payloads
// and flip positions. The raw bytes are first decoded as a codeword
// (any length: it must never panic), then encoded with EncodeInto,
// which pads them to a whole 64-bit word:
//   - the clean codeword decodes to the payload with no corrections;
//   - any single flipped bit, data or check, is corrected exactly once;
//   - two flipped bits in one 72-bit word (8 data bytes plus their check
//     byte) are detected, never reported clean or miscorrected.
func FuzzHammingScheme(f *testing.F) {
	var s HammingScheme
	f.Fuzz(func(t *testing.T, raw []byte, at, other uint32) {
		HammingDecode(append([]byte(nil), raw...))

		padded := (len(raw) + 7) &^ 7
		stored := make([]byte, StoredLen(s, len(raw)))
		n, err := s.EncodeInto(stored, raw)
		if err != nil || n != len(stored) {
			t.Fatalf("len %d: EncodeInto = %d, %v; want %d", len(raw), n, err, len(stored))
		}
		decode := func(cw []byte) ([]byte, int, error) {
			data, corrected, err := s.Decode(append([]byte(nil), cw...))
			if len(data) != padded {
				t.Fatalf("len %d: decoded %d bytes, want %d", len(raw), len(data), padded)
			}
			return data[:len(raw)], corrected, err
		}
		if data, corrected, err := decode(stored); err != nil || corrected != 0 || !bytes.Equal(data, raw) {
			t.Fatalf("len %d: clean decode corrected=%d err=%v restored=%v", len(raw), corrected, err, bytes.Equal(data, raw))
		}
		words := padded / 8
		if words == 0 {
			return
		}
		// bitAt flips bit b (0..71) of word w: 0..63 are its data bits,
		// 64..71 its check byte.
		bitAt := func(cw []byte, w, b int) {
			if b < 64 {
				cw[w*8+b/8] ^= 1 << (b % 8)
			} else {
				cw[padded+w] ^= 1 << (b - 64)
			}
		}
		w, b1 := int(at/72)%words, int(at%72)
		one := append([]byte(nil), stored...)
		bitAt(one, w, b1)
		if data, corrected, err := decode(one); err != nil || corrected != 1 || !bytes.Equal(data, raw) {
			t.Fatalf("len %d: flip of bit %d in word %d gave corrected=%d err=%v restored=%v",
				len(raw), b1, w, corrected, err, bytes.Equal(data, raw))
		}
		b2 := (b1 + 1 + int(other%71)) % 72
		bitAt(one, w, b2)
		if _, corrected, err := decode(one); !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("len %d: flips of bits %d and %d in word %d gave corrected=%d err=%v",
				len(raw), b1, b2, w, corrected, err)
		}
	})
}
