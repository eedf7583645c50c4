package ecc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sos/internal/sim"
)

func TestGFMulBasics(t *testing.T) {
	if gfMul(0, 7) != 0 || gfMul(7, 0) != 0 {
		t.Fatal("mul by zero")
	}
	if gfMul(1, 97) != 97 {
		t.Fatal("mul by one")
	}
	// 2*128 = 256 -> reduced by 0x11d -> 0x11d ^ 0x100 = 0x1d
	if got := gfMul(2, 128); got != 0x1d {
		t.Fatalf("2*128 = %#x, want 0x1d", got)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	err := quick.Check(func(a, b, c byte) bool {
		// Commutativity and distributivity over XOR (field addition).
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv(%d) failed", a)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv by zero did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	if gfPow(3, 0) != 1 {
		t.Fatal("pow 0")
	}
	if gfPow(0, 5) != 0 {
		t.Fatal("0^5")
	}
	want := gfMul(gfMul(3, 3), 3)
	if gfPow(3, 3) != want {
		t.Fatalf("3^3 = %d, want %d", gfPow(3, 3), want)
	}
}

func TestRSEncodeDecodeClean(t *testing.T) {
	rs, err := NewRS(16)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("sustainability-oriented storage for the planet!")
	cw, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != len(data)+16 {
		t.Fatalf("codeword length %d", len(cw))
	}
	got, corrected, err := rs.Decode(cw)
	if err != nil || corrected != 0 {
		t.Fatalf("clean decode: corrected=%d err=%v", corrected, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch")
	}
}

func TestRSCorrectsUpToT(t *testing.T) {
	rng := sim.NewRNG(1)
	rs, err := NewRS(16) // t = 8
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	for nerr := 1; nerr <= 8; nerr++ {
		cw, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]byte, len(cw))
		copy(orig, cw)
		// Corrupt nerr distinct positions.
		positions := map[int]bool{}
		for len(positions) < nerr {
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, corrected, err := rs.Decode(cw)
		if err != nil {
			t.Fatalf("nerr=%d: decode failed: %v", nerr, err)
		}
		if corrected != nerr {
			t.Fatalf("nerr=%d: corrected %d", nerr, corrected)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("nerr=%d: data mismatch", nerr)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatalf("nerr=%d: parity not restored", nerr)
		}
	}
}

func TestRSDetectsBeyondT(t *testing.T) {
	rng := sim.NewRNG(2)
	rs, _ := NewRS(8) // t = 4
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	failures := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		cw, _ := rs.Encode(data)
		positions := map[int]bool{}
		for len(positions) < 12 { // 3x the budget
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		if _, _, err := rs.Decode(cw); errors.Is(err, ErrUncorrectable) {
			failures++
		}
	}
	// Miscorrection probability for t=4 RS is tiny; essentially all
	// trials must report uncorrectable.
	if failures < trials-2 {
		t.Fatalf("only %d/%d overloaded codewords flagged uncorrectable", failures, trials)
	}
}

func TestRSPropertyRoundtrip(t *testing.T) {
	rs, _ := NewRS(16)
	rng := sim.NewRNG(3)
	err := quick.Check(func(raw []byte, nerrRaw uint8) bool {
		if len(raw) == 0 {
			raw = []byte{1}
		}
		if len(raw) > rs.MaxData() {
			raw = raw[:rs.MaxData()]
		}
		nerr := int(nerrRaw) % (rs.CorrectableErrors() + 1)
		cw, err := rs.Encode(raw)
		if err != nil {
			return false
		}
		positions := map[int]bool{}
		for len(positions) < nerr {
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, corrected, err := rs.Decode(cw)
		return err == nil && corrected == nerr && bytes.Equal(got, raw)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRSGeometryErrors(t *testing.T) {
	if _, err := NewRS(0); err == nil {
		t.Error("NewRS(0) accepted")
	}
	if _, err := NewRS(33); err == nil {
		t.Error("NewRS(33) accepted: the remainder register holds 32 parity bytes")
	}
	if _, err := NewRS(255); err == nil {
		t.Error("NewRS(255) accepted")
	}
	rs, _ := NewRS(16)
	if _, err := rs.Encode(nil); err == nil {
		t.Error("empty encode accepted")
	}
	if _, err := rs.Encode(make([]byte, 240)); err == nil {
		t.Error("oversize encode accepted")
	}
	if _, _, err := rs.Decode(make([]byte, 10)); err == nil {
		t.Error("short decode accepted")
	}
}

func TestRSShortCodeword(t *testing.T) {
	// Shortened codes (small data) must round trip too.
	rs, _ := NewRS(4)
	data := []byte{0xab}
	cw, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	cw[0] ^= 0xff
	got, corrected, err := rs.Decode(cw)
	if err != nil || corrected != 1 || got[0] != 0xab {
		t.Fatalf("shortened code: got=%v corrected=%d err=%v", got, corrected, err)
	}
}

// everyParity runs f once per parity count NewRS accepts. Every count
// packs the register differently (one to four live words, a partial
// last word), and each has its own tables.
func everyParity(t *testing.T, f func(np int, rs *RS)) {
	t.Helper()
	for np := 1; np <= maxParity; np++ {
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
		f(np, rs)
	}
}

func TestSyndromesMatchReference(t *testing.T) {
	// syndromes must agree with the direct polynomial evaluation
	// S_i = cw(α^i) at every density (47..49 nonzero bytes straddle
	// the bound of a deleted sparse path), on shortened codewords, and
	// on valid codewords with and without corruption (the kernel's
	// clean verdict).
	rng := sim.NewRNG(11)
	everyParity(t, func(np int, rs *RS) {
		ref := make([]byte, np)
		check := func(what string, cw []byte) {
			t.Helper()
			wantClean := true
			for i := 0; i < np; i++ {
				ref[i] = polyEval(cw, gfExp[i])
				if ref[i] != 0 {
					wantClean = false
				}
			}
			got, clean := rs.syndromes(cw)
			if clean != wantClean {
				t.Errorf("np=%d len=%d %s: clean=%v, want %v", np, len(cw), what, clean, wantClean)
			}
			for i := 0; i < np; i++ {
				if got[i] != ref[i] {
					t.Errorf("np=%d len=%d %s: syndrome %d = %#x, want %#x", np, len(cw), what, i, got[i], ref[i])
					break
				}
			}
		}
		for _, n := range []int{np + 1, 100, 255} {
			for _, nz := range []int{0, 1, 2, 3, 47, 48, 49, 100, 255} {
				if nz > n {
					continue
				}
				cw := make([]byte, n)
				for placed := 0; placed < nz; {
					p := rng.Intn(len(cw))
					if cw[p] != 0 {
						continue
					}
					cw[p] = byte(1 + rng.Intn(255))
					placed++
				}
				check(fmt.Sprintf("nz=%d", nz), cw)
			}
			for _, dense := range []bool{false, true} {
				data := make([]byte, n-np)
				for i := range data {
					if dense || rng.Intn(50) == 0 {
						data[i] = byte(rng.Uint64())
					}
				}
				cw, err := rs.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				for _, nerr := range []int{0, 1, np/2 + 1, np} {
					bad := append([]byte(nil), cw...)
					for placed := 0; placed < nerr; {
						p := rng.Intn(len(bad))
						if bad[p] != cw[p] {
							continue
						}
						bad[p] ^= byte(1 + rng.Intn(255))
						placed++
					}
					check(fmt.Sprintf("dense=%v codeword with %d errors", dense, nerr), bad)
				}
			}
		}
	})
}

func TestRSEncodeMatchesDefinition(t *testing.T) {
	// A systematic codeword is data followed by the unique parity that
	// makes every generator root α^i (i < nparity) a root of the
	// codeword, so checking both pins the parity bytes exactly.
	rng := sim.NewRNG(12)
	everyParity(t, func(np int, rs *RS) {
		for n := 1; n <= rs.MaxData(); n++ {
			for _, dense := range []bool{false, true} {
				data := make([]byte, n)
				for i := range data {
					if dense || rng.Intn(64) == 0 {
						data[i] = byte(rng.Uint64())
					}
				}
				cw, err := rs.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cw[:n], data) {
					t.Fatalf("np=%d n=%d dense=%v: codeword prefix differs from data", np, n, dense)
				}
				for i := 0; i < np; i++ {
					if s := polyEval(cw, gfExp[i]); s != 0 {
						t.Fatalf("np=%d n=%d dense=%v: cw(α^%d) = %#x, want 0", np, n, dense, i, s)
					}
				}
			}
		}
	})
}

// refGenerator returns Π(x - α^i) for i < np, highest-degree first, by
// plain polynomial multiplication.
func refGenerator(np int) []byte {
	gen := []byte{1}
	for i := 0; i < np; i++ {
		next := make([]byte, len(gen)+1)
		for j, c := range gen {
			next[j] ^= c
			next[j+1] ^= gfMul(c, gfExp[i])
		}
		gen = next
	}
	return gen
}

func TestSliceTablesAreZeroByteSteps(t *testing.T) {
	// The byte-wise division register, np bytes wide: shift one data
	// byte in, fold the feedback back through the generator. tab[k][f]
	// must be the register after feedback f and then k zero bytes,
	// packed big-endian into the top np bytes of four words.
	everyParity(t, func(np int, rs *RS) {
		gen := refGenerator(np)
		reg := make([]byte, np)
		step := func(c byte) {
			fb := reg[0] ^ c
			copy(reg, reg[1:])
			reg[np-1] = 0
			for j := range reg {
				reg[j] ^= gfMul(fb, gen[j+1])
			}
		}
		for f := 0; f < 256; f++ {
			clear(reg)
			step(byte(f))
			for k := 0; k < 8; k++ {
				var packed [maxParity]byte
				for w, word := range rs.tab[k][f] {
					binary.BigEndian.PutUint64(packed[8*w:], word)
				}
				if !bytes.Equal(packed[:np], reg) || !bytes.Equal(packed[np:], make([]byte, maxParity-np)) {
					t.Fatalf("np=%d: tab[%d][%#x] = %x, want %x then zeros", np, k, f, packed, reg)
				}
				step(0)
			}
		}
	})
}

func TestNewRSSharesTablesAcrossGoroutines(t *testing.T) {
	// Forget every built table so the goroutines below race to build
	// each one first; under -race this checks the once-per-parity
	// publication.
	for i := range sliceTabs {
		sliceTabs[i].once = sync.Once{}
		sliceTabs[i].tab = nil
	}
	data := make([]byte, 255-1)
	for i := range data {
		data[i] = byte(i*29 + 7)
	}
	const workers = 8
	type result struct {
		tab *sliceTab
		cw  []byte
	}
	results := make([][maxParity + 1]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for np := 1; np <= maxParity; np++ {
				rs, err := NewRS(np)
				if err != nil {
					t.Error(err)
					return
				}
				cw, err := rs.Encode(data[:rs.MaxData()])
				if err != nil {
					t.Error(err)
					return
				}
				results[w][np] = result{rs.tab, cw}
			}
		}(w)
	}
	wg.Wait()
	for np := 1; np <= maxParity; np++ {
		want := results[0][np]
		for w := 1; w < workers; w++ {
			got := results[w][np]
			if got.tab != want.tab {
				t.Errorf("np=%d: worker %d built its own tables", np, w)
			}
			if !bytes.Equal(got.cw, want.cw) {
				t.Errorf("np=%d: worker %d encoded %x, worker 0 %x", np, w, got.cw, want.cw)
			}
		}
	}
}

func TestNewRSAllocatesOnlyTheCoder(t *testing.T) {
	for _, np := range []int{1, 16, 32} {
		if _, err := NewRS(np); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := NewRS(np); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("NewRS(%d) with its tables built allocates %v times, want 1", np, allocs)
		}
	}
}
