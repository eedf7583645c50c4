//go:build !amd64

package ecc

// useAVX2 is false off amd64: remainder4 runs remainder on each span.
var useAVX2 = false

func remainder4AVX2(tab *sliceTab, heads *[4][8]byte, p *byte, stride, words int, rems *[4][maxParity]byte) {
	panic("ecc: remainder4AVX2 without amd64")
}
