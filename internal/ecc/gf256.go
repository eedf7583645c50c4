// Package ecc implements the error-correcting codes used by the SOS flash
// stack: CRC32C for detect-only integrity, Hamming SEC-DED for light
// protection, and Reed-Solomon over GF(2^8) for the strong codes guarding
// the SYS partition. It also defines the Scheme abstraction the FTL uses
// so that per-stream protection strength (including "no ECC" approximate
// storage) is a policy choice, exactly as §4.2 of the paper proposes.
package ecc

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for storage Reed-Solomon codes.

const gfPoly = 0x11d

var (
	gfExp [512]byte // exp table doubled to avoid mod-255 in Mul
	gfLog [256]byte

	// gfMulTab is the full 256x256 product table. Loops multiplying many
	// bytes by one constant (RS remainder rows, dirty-codeword syndromes)
	// index a row once and then multiply with a single table load per
	// byte, instead of the two log/exp lookups plus zero-branch in gfMul.
	// 64 KiB, built once.
	gfMulTab [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		row := &gfMulTab[a]
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			row[b] = gfExp[la+int(gfLog[b])]
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. It panics on division by zero, which would be a
// decoder bug rather than a data error.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ecc: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow returns a**n for n >= 0.
func gfPow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gfExp[(int(gfLog[a])*n)%255]
}

// polyEval evaluates the polynomial p (coefficients highest-degree first)
// at x using Horner's rule.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}
