package ecc

import "math/bits"

// Hamming implements an extended Hamming (SEC-DED) code over fixed-size
// data words of 64 bits: 64 data bits + 7 check bits + 1 overall parity
// bit pack into a 72-bit (9-byte) codeword, stored as data||checkbyte...
// For simplicity the codeword layout is 8 data bytes followed by one
// check byte holding the 7 Hamming bits and the overall parity bit.
//
// SEC-DED corrects any single bit error and detects any double bit error
// per 64-bit word, which is the "weak protection" tier between no-ECC
// approximate storage and Reed-Solomon.

// hammingSyndrome computes the 7 Hamming check bits over the 64 data
// bits using positions 1..71 in the classic scheme, restricted to data
// bit positions (non-powers-of-two).
func hammingSyndrome(word uint64) byte {
	var syn byte
	pos := 1
	for bit := 0; bit < 64; bit++ {
		// Advance pos past power-of-two (check bit) positions.
		for pos&(pos-1) == 0 {
			pos++
		}
		if word&(1<<uint(bit)) != 0 {
			syn ^= byte(pos & 0x7f)
		}
		pos++
	}
	return syn
}

// hammingEncodeWord returns the check byte for a 64-bit word: low 7 bits
// are the Hamming syndrome, high bit is overall parity of data+syndrome.
func hammingEncodeWord(word uint64) byte {
	syn := hammingSyndrome(word)
	parity := byte(bits.OnesCount64(word)+bits.OnesCount8(syn)) & 1
	return syn | parity<<7
}

// hammingDecodeWord attempts to correct word given its stored check byte.
// It returns the corrected word, how many bit errors were corrected
// (0 or 1), and ok=false when an uncorrectable (>=2 bit) error was
// detected.
func hammingDecodeWord(word uint64, check byte) (fixed uint64, corrected int, ok bool) {
	expect := hammingSyndrome(word)
	storedSyn := check & 0x7f
	synDiff := expect ^ storedSyn
	parityNow := byte(bits.OnesCount64(word)+bits.OnesCount8(storedSyn)) & 1
	parityErr := parityNow != check>>7

	if synDiff == 0 {
		if !parityErr {
			return word, 0, true // clean
		}
		// Parity bit itself flipped; data intact.
		return word, 1, true
	}
	if !parityErr {
		// Non-zero syndrome with even parity: double error, uncorrectable.
		return word, 0, false
	}
	// Single error at Hamming position synDiff: map back to a data bit.
	pos := 1
	for bit := 0; bit < 64; bit++ {
		for pos&(pos-1) == 0 {
			pos++
		}
		if byte(pos&0x7f) == synDiff {
			return word ^ (1 << uint(bit)), 1, true
		}
		pos++
	}
	// Syndrome points at a check bit; data unaffected.
	return word, 1, true
}

// HammingEncode encodes data (length must be a multiple of 8) and returns
// data || one check byte per 8 data bytes.
func HammingEncode(data []byte) []byte {
	if len(data)%8 != 0 {
		panic("ecc: Hamming data length must be a multiple of 8")
	}
	out := make([]byte, HammingOverhead(len(data)))
	hammingEncodeInto(out, data)
	return out
}

// hammingEncodeInto writes data, zero-padded to a whole word, then one
// check byte per word into dst, and returns the stored length. dst
// must hold HammingOverhead of the padded length.
func hammingEncodeInto(dst, data []byte) int {
	padded := (len(data) + 7) &^ 7
	copy(dst, data)
	clear(dst[len(data):padded])
	for w := 0; w < padded/8; w++ {
		dst[padded+w] = hammingEncodeWord(le64(dst[w*8:]))
	}
	return HammingOverhead(padded)
}

// HammingDecode corrects single-bit errors per 64-bit word in place,
// returning the data portion, total corrected bits, and ErrUncorrectable
// if any word had a detected double error (data is still returned).
func HammingDecode(cw []byte) (data []byte, corrected int, err error) {
	if len(cw)%9 != 0 {
		return nil, 0, ErrUncorrectable
	}
	words := len(cw) / 9
	dataLen := words * 8
	data = cw[:dataLen]
	bad := false
	for w := 0; w < words; w++ {
		word := le64(data[w*8:])
		fixed, c, ok := hammingDecodeWord(word, cw[dataLen+w])
		if !ok {
			bad = true
			continue
		}
		if c > 0 && fixed != word {
			putLE64(data[w*8:], fixed)
		}
		corrected += c
	}
	if bad {
		return data, corrected, ErrUncorrectable
	}
	return data, corrected, nil
}

// HammingOverhead returns the encoded size for n data bytes
// (n must be a multiple of 8).
func HammingOverhead(n int) int { return n + n/8 }

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
