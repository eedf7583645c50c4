package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrUncorrectable reports that a codeword held more errors than the code
// can correct. The caller (the flash read path) decides whether that is a
// hard failure (SYS data) or tolerated degradation (SPARE data).
var ErrUncorrectable = errors.New("ecc: uncorrectable codeword")

// RS is a systematic Reed-Solomon code over GF(2^8) with nparity check
// bytes per codeword, correcting up to nparity/2 byte errors. Codewords
// are data||parity with len(data)+nparity <= 255.
type RS struct {
	nparity int
	tab     *sliceTab // shared by every RS with this parity count
}

// maxParity is the widest parity the four-word remainder register holds.
const maxParity = 32

// sliceTab is the remainder register's eight row tables for one
// generator, 64 KiB. tab[0][f] is f·gen[1..nparity] packed big-endian
// into four words and zero-padded at the low end: the row the register
// XORs in after shifting out a top byte with feedback f. tab[k][f] is
// tab[k-1][f] advanced through one zero data byte: what feedback f
// contributes when k more bytes follow it in an 8-byte step.
type sliceTab [8][256][4]uint64

// sliceTabs holds each parity count's tables, built on first use and
// then shared, so NewRS allocates only the RS itself.
var sliceTabs [maxParity + 1]struct {
	once sync.Once
	tab  *sliceTab
}

// NewRS returns a Reed-Solomon coder with the given number of parity
// bytes, in [1, 32]; even values give a sensible correction budget, odd
// ones floor it.
func NewRS(nparity int) (*RS, error) {
	if nparity < 1 || nparity > maxParity {
		return nil, fmt.Errorf("ecc: invalid parity count %d", nparity)
	}
	s := &sliceTabs[nparity]
	s.once.Do(func() { s.tab = newSliceTab(nparity) })
	return &RS{nparity: nparity, tab: s.tab}, nil
}

// newSliceTab builds the row tables for gen = Π(x - α^i), i < nparity.
func newSliceTab(nparity int) *sliceTab {
	// gen is highest-degree first, built in place one factor at a time.
	var gen [maxParity + 1]byte
	gen[0] = 1
	for i := 0; i < nparity; i++ {
		for j := i + 1; j > 0; j-- {
			gen[j] ^= gfMul(gen[j-1], gfExp[i])
		}
	}
	t := new(sliceTab)
	t0 := &t[0]
	// Multiplying by f is GF(2)-linear in f: build the single-bit rows,
	// then row f is row f&(f-1) XOR row f&-f, both built before it
	// (single-bit rows XOR the zero row 0 and stay as built).
	for b := 0; b < 8; b++ {
		row := &t0[1<<b]
		for j := 0; j < nparity; j++ {
			row[j/8] |= uint64(gfMulTab[1<<b][gen[j+1]]) << (56 - 8*(j%8))
		}
	}
	for f := 1; f < 256; f++ {
		hi, lo := &t0[f&(f-1)], &t0[f&-f]
		t0[f] = [4]uint64{hi[0] ^ lo[0], hi[1] ^ lo[1], hi[2] ^ lo[2], hi[3] ^ lo[3]}
	}
	for k := 1; k < 8; k++ {
		for f := range t[k] {
			w := &t[k-1][f]
			row := &t0[byte(w[0]>>56)]
			t[k][f] = [4]uint64{
				(w[0]<<8 | w[1]>>56) ^ row[0],
				(w[1]<<8 | w[2]>>56) ^ row[1],
				(w[2]<<8 | w[3]>>56) ^ row[2],
				w[3]<<8 ^ row[3],
			}
		}
	}
	return t
}

// ParityBytes returns the per-codeword parity overhead.
func (r *RS) ParityBytes() int { return r.nparity }

// CorrectableErrors returns the per-codeword correction budget t.
func (r *RS) CorrectableErrors() int { return r.nparity / 2 }

// MaxData returns the largest data length per codeword.
func (r *RS) MaxData() int { return 255 - r.nparity }

// Encode appends nparity parity bytes to data and returns the codeword.
// len(data) must be in (0, MaxData].
func (r *RS) Encode(data []byte) ([]byte, error) {
	if len(data) == 0 || len(data) > r.MaxData() {
		return nil, fmt.Errorf("ecc: data length %d out of range (1..%d)", len(data), r.MaxData())
	}
	cw := make([]byte, len(data)+r.nparity)
	r.encodeInto(cw, data)
	return cw, nil
}

// encodeInto writes the systematic codeword data||parity into cw, which
// must be exactly len(data)+ParityBytes() bytes. len(data) must be in
// (0, MaxData] — callers validate. It allocates nothing.
func (r *RS) encodeInto(cw, data []byte) {
	copy(cw, data)
	rem := r.remainder(data)
	copy(cw[len(data):], rem[:r.nparity])
}

// remainder returns data·x^nparity mod gen, highest-degree first in the
// first nparity bytes (the rest are zero): the parity systematic
// encoding appends to data. It runs a 256-bit shift register. One data
// byte shifts the register left a byte and XORs in the row of its
// feedback, the byte XOR the register's top byte. Eight bytes at a time
// that is one step: XOR the next 8 bytes, big-endian, into the top word
// x, shift the register left a word and XOR in tab[7][x₀] … tab[0][x₇].
// The step is linear in the register and the data, so each byte of x
// contributes its own row independently; the eight loads do not wait on
// each other. The last len(data) mod 8 bytes take the byte step.
func (r *RS) remainder(data []byte) (rem [maxParity]byte) {
	// A zero register stays zero through zero bytes: skip the leading
	// zero run a word at a time.
	for len(data) >= 8 && binary.LittleEndian.Uint64(data) == 0 {
		data = data[8:]
	}
	t := r.tab
	var w0, w1, w2, w3 uint64
	for ; len(data) >= 8; data = data[8:] {
		x := w0 ^ binary.BigEndian.Uint64(data)
		r7, r6, r5, r4 := &t[7][x>>56], &t[6][byte(x>>48)], &t[5][byte(x>>40)], &t[4][byte(x>>32)]
		r3, r2, r1, r0 := &t[3][byte(x>>24)], &t[2][byte(x>>16)], &t[1][byte(x>>8)], &t[0][byte(x)]
		w0 = w1 ^ r7[0] ^ r6[0] ^ r5[0] ^ r4[0] ^ r3[0] ^ r2[0] ^ r1[0] ^ r0[0]
		w1 = w2 ^ r7[1] ^ r6[1] ^ r5[1] ^ r4[1] ^ r3[1] ^ r2[1] ^ r1[1] ^ r0[1]
		w2 = w3 ^ r7[2] ^ r6[2] ^ r5[2] ^ r4[2] ^ r3[2] ^ r2[2] ^ r1[2] ^ r0[2]
		w3 = r7[3] ^ r6[3] ^ r5[3] ^ r4[3] ^ r3[3] ^ r2[3] ^ r1[3] ^ r0[3]
	}
	for _, c := range data {
		row := &t[0][byte(w0>>56)^c]
		w0 = (w0<<8 | w1>>56) ^ row[0]
		w1 = (w1<<8 | w2>>56) ^ row[1]
		w2 = (w2<<8 | w3>>56) ^ row[2]
		w3 = w3<<8 ^ row[3]
	}
	binary.BigEndian.PutUint64(rem[0:], w0)
	binary.BigEndian.PutUint64(rem[8:], w1)
	binary.BigEndian.PutUint64(rem[16:], w2)
	binary.BigEndian.PutUint64(rem[24:], w3)
	return rem
}

// remainder4 sets rems[k] to the remainder of the n-byte span
// data[k*stride:][:n], for k < 4, in one pass: the spans are independent
// register chains, and one chain alone is latency-bound. With AVX2 the
// pass runs in remainder4AVX2, each span's register in a YMM register
// and the four chains interleaved. Otherwise each span takes remainder.
//
// A zero register stays zero through zero bytes, so zero bytes put in
// front of a span leave its remainder unchanged: padded with 8 − n mod 8
// of them, a span is whole 8-byte words, the first holding its first
// n mod 8 bytes (heads). Then the leading words that are zero in all
// four spans are skipped, when the heads are zero too.
func (r *RS) remainder4(rems *[4][maxParity]byte, data []byte, n, stride int) {
	// The assembly checks no bounds: prove every span in range first.
	if n < 0 || stride < 0 || stride > len(data) || 3*stride+n > len(data) {
		panic("ecc: remainder4 spans out of range")
	}
	if !useAVX2 {
		for k := range rems {
			rems[k] = r.remainder(data[k*stride : k*stride+n])
		}
		return
	}
	head := n % 8
	var heads [4][8]byte
	for k := range heads {
		copy(heads[k][8-head:], data[k*stride:k*stride+head])
	}
	start := head
	if heads == ([4][8]byte{}) {
		// Each span is scanned only as far as the spans before it were
		// zero.
		end := n
		for k := 0; k < 4; k++ {
			span := data[k*stride+start : k*stride+end]
			for len(span) >= 8 && binary.LittleEndian.Uint64(span) == 0 {
				span = span[8:]
			}
			end -= len(span)
		}
		if end == n {
			*rems = [4][maxParity]byte{}
			return
		}
		start = end
	}
	var p *byte
	words := (n - start) / 8
	if words > 0 {
		p = &data[start]
	}
	remainder4AVX2(r.tab, &heads, p, stride, words, rems)
}

// syndromes computes the nparity syndromes of the codeword; all-zero
// syndromes mean no detectable error.
func (r *RS) syndromes(cw []byte) ([]byte, bool) {
	syn := make([]byte, r.nparity)
	data := len(cw) - r.nparity
	rem := r.remainder(cw[:data])
	return syn, r.syndromesFromRem(syn, &rem, cw[data:])
}

// syndromesFromRem finishes a syndrome check from rem, the remainder of
// a codeword's data part, and its stored parity bytes. The codeword mod
// gen is the data's re-encoded parity XOR the stored parity, and S_i =
// (cw mod gen)(α^i) since every α^i is a root of gen. A zero remainder
// is a clean codeword; otherwise Horner's rule over the nparity
// remainder bytes gives the syndromes. It reports whether the codeword
// is clean, and clobbers rem.
func (r *RS) syndromesFromRem(syn []byte, rem *[maxParity]byte, parity []byte) bool {
	np := r.nparity
	parity = parity[:np]
	// XOR a word at a time, then the last np mod 8 bytes.
	var dirty uint64
	j := 0
	for ; j+8 <= np; j += 8 {
		v := binary.LittleEndian.Uint64(rem[j:]) ^ binary.LittleEndian.Uint64(parity[j:])
		binary.LittleEndian.PutUint64(rem[j:], v)
		dirty |= v
	}
	for ; j < np; j++ {
		rem[j] ^= parity[j]
		dirty |= uint64(rem[j])
	}
	if dirty == 0 {
		for i := range syn {
			syn[i] = 0
		}
		return true
	}
	for i := 0; i < np; i++ {
		// A single row of the product table: for root x, s = s*x ^ c
		// becomes one load per remainder byte.
		row := &gfMulTab[gfExp[i]]
		var s byte
		for _, c := range rem[:np] {
			s = row[s] ^ c
		}
		syn[i] = s
	}
	return false
}

// DecodeInPlace is Decode's allocation-free fast path: it syndrome-
// checks the codeword with stack scratch and, when clean, returns the
// data portion of cw directly — zero allocations. Dirty codewords (the
// error path) go to correct with the syndromes already in that scratch,
// which corrects in place within cw.
func (r *RS) DecodeInPlace(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= r.nparity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d out of range", len(cw))
	}
	rem := r.remainder(cw[:len(cw)-r.nparity])
	return r.decodeFromRem(cw, &rem)
}

// decodeFromRem is DecodeInPlace for a codeword whose length the caller
// checked and whose data part's remainder it already computed.
func (r *RS) decodeFromRem(cw []byte, rem *[maxParity]byte) (data []byte, corrected int, err error) {
	var scratch [maxParity]byte
	syn := scratch[:r.nparity]
	if r.syndromesFromRem(syn, rem, cw[len(cw)-r.nparity:]) {
		return cw[:len(cw)-r.nparity], 0, nil
	}
	return r.correct(cw, syn)
}

// Decode corrects up to CorrectableErrors byte errors in place and
// returns the data portion along with the number of corrected bytes.
// If the codeword is uncorrectable it returns ErrUncorrectable; the
// (possibly corrupt) data portion is still returned so approximate
// consumers can use it.
func (r *RS) Decode(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= r.nparity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d out of range", len(cw))
	}
	syn, clean := r.syndromes(cw)
	if clean {
		return cw[:len(cw)-r.nparity], 0, nil
	}
	return r.correct(cw, syn)
}

// correct runs Berlekamp-Massey, Chien and Forney on a dirty codeword
// whose nonzero syndromes syn the caller already computed, correcting
// cw in place. It only reads syn, so stack scratch stays on the stack.
func (r *RS) correct(cw, syn []byte) (data []byte, corrected int, err error) {
	data = cw[:len(cw)-r.nparity]

	// Berlekamp-Massey: find error locator polynomial sigma
	// (lowest-degree first here for convenience).
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for n := 0; n < r.nparity; n++ {
		var delta byte = syn[n]
		for i := 1; i <= l; i++ {
			if i < len(sigma) {
				delta ^= gfMul(sigma[i], syn[n-i])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			sigma = polyAddShift(sigma, prev, gfDiv(delta, b), m)
			l = n + 1 - l
			prev = tmp
			b = delta
			m = 1
		} else {
			sigma = polyAddShift(sigma, prev, gfDiv(delta, b), m)
			m++
		}
	}
	nerr := l
	if nerr > r.CorrectableErrors() || len(sigma)-1 > nerr {
		return data, 0, ErrUncorrectable
	}

	// Chien search: roots of sigma give error positions.
	n := len(cw)
	var errPos []int
	for i := 0; i < n; i++ {
		// Position i (0 = first byte) corresponds to locator alpha^(n-1-i).
		xinv := gfExp[(255-(n-1-i))%255] // alpha^-(n-1-i)
		var v byte
		for j := len(sigma) - 1; j >= 0; j-- {
			v = gfMul(v, xinv) ^ sigma[j]
		}
		if v == 0 {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) != nerr {
		return data, 0, ErrUncorrectable
	}

	// Forney algorithm: error magnitudes.
	// Omega = (syn * sigma) mod x^nparity, syn as polynomial s1 + s2 x + ...
	omega := make([]byte, r.nparity)
	for i := 0; i < r.nparity; i++ {
		var v byte
		for j := 0; j <= i && j < len(sigma); j++ {
			v ^= gfMul(sigma[j], syn[i-j])
		}
		omega[i] = v
	}
	// sigma' (formal derivative): odd-power coefficients.
	for _, pos := range errPos {
		xi := gfExp[(n-1-pos)%255] // locator X_i
		xinv := gfInv(xi)
		// omega(X_i^-1)
		var ov byte
		for j := len(omega) - 1; j >= 0; j-- {
			ov = gfMul(ov, xinv) ^ omega[j]
		}
		// sigma'(X_i^-1)
		var dv byte
		for j := 1; j < len(sigma); j += 2 {
			dv ^= gfMul(sigma[j], gfPow(xinv, j-1))
		}
		if dv == 0 {
			return data, 0, ErrUncorrectable
		}
		// Forney with first consecutive root alpha^0 (b=0) carries an
		// extra X_i^(1-b) = X_i factor.
		mag := gfMul(xi, gfDiv(ov, dv))
		cw[pos] ^= mag
	}

	// Verify the correction actually zeroed the syndromes; miscorrection
	// beyond the budget must not silently pass.
	if _, ok := r.syndromes(cw); !ok {
		return data, 0, ErrUncorrectable
	}
	return cw[:len(cw)-r.nparity], len(errPos), nil
}

// polyAddShift returns a + scale * x^shift * b, where polynomials are
// lowest-degree first.
func polyAddShift(a, b []byte, scale byte, shift int) []byte {
	outLen := len(a)
	if len(b)+shift > outLen {
		outLen = len(b) + shift
	}
	out := make([]byte, outLen)
	copy(out, a)
	for i, c := range b {
		out[i+shift] ^= gfMul(c, scale)
	}
	return out
}
