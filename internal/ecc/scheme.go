package ecc

import (
	"fmt"
	"hash/crc32"
)

// Scheme is the protection policy applied to a flash page. The FTL picks
// a Scheme per stream: SYS pages get strong Reed-Solomon, SPARE pages get
// detect-only or nothing (approximate storage, §4.2).
type Scheme interface {
	// Name identifies the scheme in telemetry and experiment tables.
	Name() string
	// Encode returns the stored representation of data.
	Encode(data []byte) ([]byte, error)
	// EncodeInto writes the stored representation of data into dst and
	// returns its length, exactly StoredLen(s, len(data)); dst must be
	// at least that long. It allocates nothing: every page either
	// backend programs is encoded through it into a buffer its caller
	// owns.
	EncodeInto(dst, data []byte) (int, error)
	// Decode recovers data from a stored representation, reporting how
	// many byte corrections were applied. For detect-only and no-ECC
	// schemes corrected is always 0; detect-only returns
	// ErrUncorrectable when the payload no longer matches its checksum,
	// while still returning the degraded data for approximate consumers.
	Decode(stored []byte) (data []byte, corrected int, err error)
	// Overhead returns the stored size for n data bytes.
	Overhead(n int) int
	// EstimateDecode predicts whether a stored payload of n data bytes
	// with flippedBits uniformly-placed raw bit errors would decode
	// cleanly. It is used for accounting-only pages, where the flash
	// layer tracks error counts but no payload. The estimate is
	// mean-based (expected per-codeword error load vs. the correction
	// budget) and documented as such.
	EstimateDecode(flippedBits, n int) bool
}

// EncodeToBuf encodes data with s into buf, reallocating only when
// buf's capacity is below StoredLen(s, len(data)). It returns the
// stored payload, which aliases buf or its replacement; callers keep
// it to reuse the capacity next time.
func EncodeToBuf(s Scheme, buf, data []byte) ([]byte, error) {
	need := StoredLen(s, len(data))
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	n, err := s.EncodeInto(buf[:need], data)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// IntoDecoder is the optional Scheme extension for the batched read
// path: decode within the stored buffer itself so the clean-read steady
// state allocates nothing. The returned data aliases stored. Schemes
// whose Decode already returns an alias of stored (None, DetectOnly)
// don't need it; DecodeStored falls back to Decode.
type IntoDecoder interface {
	// DecodeInPlace recovers data from a stored representation without
	// allocating on the clean path, correcting errors in place within
	// stored. The returned data aliases stored.
	DecodeInPlace(stored []byte) (data []byte, corrected int, err error)
}

// StoredLen returns the stored (encoded) length of a dataLen-byte
// payload under s, including the zero padding to a whole 64-bit word
// that Hamming encodes with. EncodeInto returns exactly this length,
// and read buffers are sized by it.
func StoredLen(s Scheme, dataLen int) int {
	if _, isHamming := s.(HammingScheme); isHamming {
		dataLen = (dataLen + 7) &^ 7
	}
	return s.Overhead(dataLen)
}

// DecodeStored decodes a stored payload with s, using the scheme's
// in-place decoder when it has one. For every scheme the stack
// configures (None, DetectOnly, RS) the clean path allocates nothing;
// the returned data may alias stored either way, so callers that retain
// it beyond the buffer's lifetime must copy.
func DecodeStored(s Scheme, stored []byte) (data []byte, corrected int, err error) {
	if dec, ok := s.(IntoDecoder); ok {
		return dec.DecodeInPlace(stored)
	}
	return s.Decode(stored)
}

// None is the no-protection scheme: bits read back exactly as the medium
// degraded them. This is the paper's approximate storage for SPARE media.
type None struct{}

// Name implements Scheme.
func (None) Name() string { return "none" }

// Encode implements Scheme.
func (None) Encode(data []byte) ([]byte, error) {
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// EncodeInto implements Scheme.
func (None) EncodeInto(dst, data []byte) (int, error) {
	if len(dst) < len(data) {
		return 0, fmt.Errorf("ecc: dst too short (%d < %d)", len(dst), len(data))
	}
	return copy(dst, data), nil
}

// Decode implements Scheme.
func (None) Decode(stored []byte) ([]byte, int, error) { return stored, 0, nil }

// Overhead implements Scheme.
func (None) Overhead(n int) int { return n }

// EstimateDecode implements Scheme: no ECC never fails to "decode" —
// errors pass through as degradation.
func (None) EstimateDecode(flippedBits, n int) bool { return true }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DetectOnly appends a CRC32C so corruption is *detected* (enabling the
// degradation monitor to act) but never corrected.
type DetectOnly struct{}

// Name implements Scheme.
func (DetectOnly) Name() string { return "crc32c" }

// Encode implements Scheme.
func (DetectOnly) Encode(data []byte) ([]byte, error) {
	out := make([]byte, len(data)+4)
	copy(out, data)
	c := crc32.Checksum(data, castagnoli)
	out[len(data)] = byte(c)
	out[len(data)+1] = byte(c >> 8)
	out[len(data)+2] = byte(c >> 16)
	out[len(data)+3] = byte(c >> 24)
	return out, nil
}

// EncodeInto implements Scheme.
func (DetectOnly) EncodeInto(dst, data []byte) (int, error) {
	need := len(data) + 4
	if len(dst) < need {
		return 0, fmt.Errorf("ecc: dst too short (%d < %d)", len(dst), need)
	}
	copy(dst, data)
	c := crc32.Checksum(data, castagnoli)
	dst[len(data)] = byte(c)
	dst[len(data)+1] = byte(c >> 8)
	dst[len(data)+2] = byte(c >> 16)
	dst[len(data)+3] = byte(c >> 24)
	return need, nil
}

// Decode implements Scheme.
func (DetectOnly) Decode(stored []byte) ([]byte, int, error) {
	if len(stored) < 4 {
		return nil, 0, fmt.Errorf("ecc: stored payload too short for crc (%d bytes)", len(stored))
	}
	data := stored[:len(stored)-4]
	tail := stored[len(stored)-4:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if crc32.Checksum(data, castagnoli) != want {
		return data, 0, ErrUncorrectable
	}
	return data, 0, nil
}

// Overhead implements Scheme.
func (DetectOnly) Overhead(n int) int { return n + 4 }

// EstimateDecode implements Scheme: any error is detected (and none
// corrected).
func (DetectOnly) EstimateDecode(flippedBits, n int) bool { return flippedBits == 0 }

// HammingScheme provides SEC-DED per 64-bit word; the light protection
// tier. Encode takes only multiples of 8 bytes; EncodeInto pads.
type HammingScheme struct{}

// Name implements Scheme.
func (HammingScheme) Name() string { return "hamming-secded" }

// Encode implements Scheme.
func (HammingScheme) Encode(data []byte) ([]byte, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("ecc: hamming needs 8-byte aligned data, got %d", len(data))
	}
	return HammingEncode(data), nil
}

// EncodeInto implements Scheme. Unlike Encode it takes data of any
// length, zero-padded to a whole 64-bit word; decoders strip the
// padding by the logical length the caller records.
func (s HammingScheme) EncodeInto(dst, data []byte) (int, error) {
	if need := StoredLen(s, len(data)); len(dst) < need {
		return 0, fmt.Errorf("ecc: dst too short (%d < %d)", len(dst), need)
	}
	return hammingEncodeInto(dst, data), nil
}

// Decode implements Scheme.
func (HammingScheme) Decode(stored []byte) ([]byte, int, error) {
	return HammingDecode(stored)
}

// Overhead implements Scheme.
func (HammingScheme) Overhead(n int) int { return HammingOverhead(n) }

// EstimateDecode implements Scheme: SEC-DED fails when some 72-bit word
// collects two errors. Mean-based estimate: with f errors over w words
// the expected number of double-hit words is ~f*(f-1)/(2w); we predict
// failure when that expectation reaches 1/2.
func (HammingScheme) EstimateDecode(flippedBits, n int) bool {
	if flippedBits <= 1 {
		return true
	}
	words := n / 8
	if words == 0 {
		return false
	}
	f := float64(flippedBits)
	return f*(f-1)/(2*float64(words)) < 0.5
}

// RSScheme shards data across interleaved Reed-Solomon codewords. This is
// the strong protection used for SYS data; with the default geometry
// (223+32) it corrects 16 byte errors per 255-byte codeword, the class of
// strength real SSD BCH/LDPC achieves.
type RSScheme struct {
	rs        *RS
	dataShard int
}

// NewRSScheme builds an RS scheme with dataShard data bytes and nparity
// parity bytes per codeword (nparity in [1, 32], dataShard+nparity <= 255).
func NewRSScheme(dataShard, nparity int) (*RSScheme, error) {
	rs, err := NewRS(nparity)
	if err != nil {
		return nil, err
	}
	if dataShard <= 0 || dataShard > rs.MaxData() {
		return nil, fmt.Errorf("ecc: data shard %d out of range (1..%d)", dataShard, rs.MaxData())
	}
	return &RSScheme{rs: rs, dataShard: dataShard}, nil
}

// MustRSScheme is NewRSScheme panicking on bad geometry; for package-level
// defaults with constant arguments.
func MustRSScheme(dataShard, nparity int) *RSScheme {
	s, err := NewRSScheme(dataShard, nparity)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements Scheme.
func (s *RSScheme) Name() string {
	return fmt.Sprintf("rs(%d,%d)", s.dataShard+s.rs.ParityBytes(), s.dataShard)
}

// Encode implements Scheme. Data is split into dataShard-byte chunks,
// each encoded independently; the final chunk may be shorter (RS is
// length-agnostic for shortened codes).
func (s *RSScheme) Encode(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ecc: empty payload")
	}
	// One exact-size allocation for the whole stored page; shards encode
	// directly into their slots.
	out := make([]byte, s.Overhead(len(data)))
	if _, err := s.EncodeInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto implements Scheme: the allocation-free core of Encode.
// Four full shards at a time share one remainder4 pass; the last 0–3
// shards take remainder one at a time.
func (s *RSScheme) EncodeInto(dst, data []byte) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("ecc: empty payload")
	}
	need := s.Overhead(len(data))
	if len(dst) < need {
		return 0, fmt.Errorf("ecc: dst too short (%d < %d)", len(dst), need)
	}
	np := s.rs.ParityBytes()
	var rems [4][maxParity]byte
	pos := 0
	for off := 0; off < len(data); {
		shards := 1
		if len(data)-off >= 4*s.dataShard {
			s.rs.remainder4(&rems, data[off:], s.dataShard, s.dataShard)
			shards = 4
		} else {
			rems[0] = s.rs.remainder(data[off:min(off+s.dataShard, len(data))])
		}
		for k := 0; k < shards; k++ {
			end := min(off+s.dataShard, len(data))
			pos += copy(dst[pos:], data[off:end])
			pos += copy(dst[pos:], rems[k][:np])
			off = end
		}
	}
	return need, nil
}

// Decode implements Scheme. Every shard is decoded even when an earlier
// shard fails, so the caller gets maximally repaired data either way.
func (s *RSScheme) Decode(stored []byte) ([]byte, int, error) {
	full := s.dataShard + s.rs.ParityBytes()
	data := make([]byte, 0, len(stored))
	corrected := 0
	var firstErr error
	for off := 0; off < len(stored); off += full {
		end := off + full
		if end > len(stored) {
			end = len(stored)
		}
		shard := stored[off:end]
		if len(shard) <= s.rs.ParityBytes() {
			return nil, corrected, fmt.Errorf("ecc: truncated RS shard (%d bytes)", len(shard))
		}
		d, c, err := s.rs.Decode(shard)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		corrected += c
		data = append(data, d...)
	}
	return data, corrected, firstErr
}

// DecodeInPlace implements IntoDecoder: shard-by-shard in-place decode
// with stack-scratch syndrome checks, compacting the data parts
// leftward within stored so the result is one contiguous alias of
// stored[:dataLen]. Four full shards at a time share one remainder4
// pass over their data parts; the last 0–3 shards take remainder one
// at a time. Clean pages — the overwhelming steady state — allocate
// nothing; shards that need correction fall back to the allocating
// BM/Chien/Forney machinery (the error path), which corrects in place
// before compaction. Like Decode, every shard is processed even after a
// failure so the caller gets maximally repaired data.
func (s *RSScheme) DecodeInPlace(stored []byte) (data []byte, corrected int, err error) {
	np := s.rs.ParityBytes()
	full := s.dataShard + np
	var rems [4][maxParity]byte
	pos := 0
	var firstErr error
	for off := 0; off < len(stored); {
		shards := 1
		if len(stored)-off >= 4*full {
			// Compaction writes below each shard's own data part, so the
			// later three shards are intact when their turn comes.
			s.rs.remainder4(&rems, stored[off:], s.dataShard, full)
			shards = 4
		} else {
			end := min(off+full, len(stored))
			if end-off <= np {
				return nil, corrected, fmt.Errorf("ecc: truncated RS shard (%d bytes)", end-off)
			}
			rems[0] = s.rs.remainder(stored[off : end-np])
		}
		for k := 0; k < shards; k++ {
			end := min(off+full, len(stored))
			d, c, derr := s.rs.decodeFromRem(stored[off:end], &rems[k])
			if derr != nil && firstErr == nil {
				firstErr = derr
			}
			corrected += c
			// Compact this shard's data part leftward; the destination
			// never overtakes the source (pos <= off), so the overlapping
			// copy is safe.
			pos += copy(stored[pos:pos+len(d)], d)
			off = end
		}
	}
	return stored[:pos], corrected, firstErr
}

// Overhead implements Scheme.
func (s *RSScheme) Overhead(n int) int {
	shards := (n + s.dataShard - 1) / s.dataShard
	return n + shards*s.rs.ParityBytes()
}

// EstimateDecode implements Scheme: with uniformly placed bit errors the
// expected byte-error load per codeword is flippedBits/shards (distinct
// bytes at flash error rates); decode succeeds while that stays within
// ~85% of the correction budget t (margin for clustering above the mean).
func (s *RSScheme) EstimateDecode(flippedBits, n int) bool {
	if flippedBits == 0 {
		return true
	}
	shards := (n + s.dataShard - 1) / s.dataShard
	if shards == 0 {
		return false
	}
	perShard := float64(flippedBits) / float64(shards)
	return perShard <= 0.85*float64(s.rs.CorrectableErrors())
}

// ByName returns a Scheme from its configuration name. Recognized:
// "none", "crc32c", "hamming", "rs-light" (16 parity), "rs-strong"
// (32 parity).
func ByName(name string) (Scheme, error) {
	switch name {
	case "none":
		return None{}, nil
	case "crc32c":
		return DetectOnly{}, nil
	case "hamming":
		return HammingScheme{}, nil
	case "rs-light":
		return NewRSScheme(239, 16)
	case "rs-strong":
		return NewRSScheme(223, 32)
	default:
		return nil, fmt.Errorf("ecc: unknown scheme %q", name)
	}
}
