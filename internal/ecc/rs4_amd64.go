package ecc

// useAVX2 picks remainder4's assembly path. It is set once from the CPU
// at init; tests clear it to run the portable path on amd64.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 OSXSAVE and AVX, XCR0 with the SSE and AVX
// state bits, and CPUID leaf 7 AVX2.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// remainder4AVX2 computes the remainders of four spans into rems. Span
// k is heads[k] — 8 bytes, zero padding then the span's first bytes —
// followed by words more 8-byte words at p + k·stride. Every byte it
// reads must be in range: it checks nothing.
//
//go:noescape
func remainder4AVX2(tab *sliceTab, heads *[4][8]byte, p *byte, stride, words int, rems *[4][maxParity]byte)
