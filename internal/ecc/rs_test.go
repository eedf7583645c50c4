package ecc

import (
	"bytes"
	"errors"
	"fmt"
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

// refParities are the parity counts the reference tests cover: both
// ends of NewRS's range and every width the remainder register packs
// differently (one, two and four words).
var refParities = []int{1, 4, 8, 16, 32}

func TestSyndromesSparseMatchesReference(t *testing.T) {
	// syndromesInto picks a sparse evaluation for nearly-zero codewords
	// and the remainder kernel for dense ones; both must agree with the
	// direct polynomial evaluation S_i = cw(α^i) at every density,
	// especially around the sparseSyndromeMax crossover, on shortened
	// codewords, and on valid codewords with and without corruption
	// (the kernel's clean verdict).
	rng := sim.NewRNG(11)
	for _, np := range refParities {
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]byte, np)
		got := make([]byte, np)
		check := func(what string, cw []byte) {
			t.Helper()
			wantClean := true
			for i := 0; i < np; i++ {
				ref[i] = polyEval(cw, gfExp[i])
				if ref[i] != 0 {
					wantClean = false
				}
			}
			clean := rs.syndromesInto(got, cw)
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
			for _, nz := range []int{0, 1, 2, 3, sparseSyndromeMax - 1, sparseSyndromeMax, sparseSyndromeMax + 1, 100, 255} {
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
	}
}

func TestRSEncodeMatchesDefinition(t *testing.T) {
	// A systematic codeword is data followed by the unique parity that
	// makes every generator root α^i (i < nparity) a root of the
	// codeword, so checking both pins the parity bytes exactly.
	rng := sim.NewRNG(12)
	for _, np := range refParities {
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
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
	}
}
