package ecc

import (
	"testing"

	"sos/internal/sim"
)

// kernelPaths runs f once per remainder4 path this CPU has: the AVX2
// assembly when the CPU check chose it, and the portable path, forced
// by clearing useAVX2 for the duration.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("CPU check chose the portable path")
		}
		f(t)
	})
	t.Run("portable", func(t *testing.T) {
		defer func(saved bool) { useAVX2 = saved }(useAVX2)
		useAVX2 = false
		f(t)
	})
}

func TestRemainder4MatchesRemainder(t *testing.T) {
	// remainder4 must equal four remainder calls for every parity
	// count, every span length, contiguous spans (stride n, as encode
	// lays out data) and spans a parity apart (stride n+np, as decode
	// finds them), with zero prefixes of different lengths in each
	// span: a shared prefix the skip takes, then one of each span's own
	// that the kernel runs through. Bytes between and after the spans
	// are junk, so a read past a span changes the result.
	kernelPaths(t, func(t *testing.T) {
		rng := sim.NewRNG(41)
		everyParity(t, func(np int, rs *RS) {
			for n := 0; n <= rs.MaxData(); n++ {
				for _, stride := range []int{n, n + np} {
					for trial := 0; trial < 3; trial++ {
						buf := make([]byte, 3*stride+n+64)
						for i := range buf {
							buf[i] = byte(rng.Uint64())
						}
						shared := rng.Intn(n + 1)
						for k := 0; k < 4; k++ {
							zeros := shared + rng.Intn(n-shared+1)
							clear(buf[k*stride : k*stride+zeros])
						}
						data := buf[:3*stride+n]
						var got [4][maxParity]byte
						rs.remainder4(&got, data, n, stride)
						for k := range got {
							if want := rs.remainder(data[k*stride : k*stride+n]); got[k] != want {
								t.Fatalf("np=%d n=%d stride=%d span %d: remainder4 %x, remainder %x",
									np, n, stride, k, got[k][:np], want[:np])
							}
						}
					}
				}
			}
		})
	})
}

func TestRemainder4RejectsSpansOutOfRange(t *testing.T) {
	rs, err := NewRS(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ size, n, stride int }{
		{size: 4*223 - 1, n: 223, stride: 223},
		{size: 4 * 255, n: 223, stride: -1},
		{size: 4 * 255, n: -1, stride: 255},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size=%d n=%d stride=%d: no panic", c.size, c.n, c.stride)
				}
			}()
			var rems [4][maxParity]byte
			rs.remainder4(&rems, make([]byte, c.size), c.n, c.stride)
		}()
	}
}

func TestRSSchemePageZeroAlloc(t *testing.T) {
	// EncodeInto and DecodeInPlace run the four-shard kernel on a dense
	// page without allocating, on both paths.
	kernelPaths(t, func(t *testing.T) {
		s := MustRSScheme(223, 32)
		rng := sim.NewRNG(42)
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		stored := make([]byte, s.Overhead(len(data)))
		page := make([]byte, len(stored))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.EncodeInto(stored, data); err != nil {
				t.Fatal(err)
			}
			copy(page, stored)
			if _, _, err := s.DecodeInPlace(page); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("EncodeInto+DecodeInPlace allocated %.1f times per page", allocs)
		}
	})
}
