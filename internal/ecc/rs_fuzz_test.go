package ecc

import (
	"bytes"
	"testing"
)

// FuzzRSDecodeInPlace drives DecodeInPlace with arbitrary parity counts,
// payloads and error patterns. The raw payload is first decoded as-is
// (any length, in range or not: it must never panic), then encoded and
// corrupted by flips, read as (position, XOR mask) pairs capped at
// nparity pairs. With e corrupted bytes left after the flips:
//   - e <= t decodes to the original data and reports e corrections;
//   - 1 <= e <= nparity is never reported clean (the code's minimum
//     distance is nparity+1, so such a pattern always has a nonzero
//     syndrome; past t it may miscorrect but must not pass silently).
func FuzzRSDecodeInPlace(f *testing.F) {
	f.Fuzz(func(t *testing.T, npSel uint8, raw, flips []byte) {
		np := 1 + int(npSel)%maxParity
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
		arbitrary := append([]byte(nil), raw...)
		if _, _, err := rs.DecodeInPlace(arbitrary); err == nil && (len(raw) <= np || len(raw) > 255) {
			t.Fatalf("np=%d: codeword length %d accepted", np, len(raw))
		}

		data := raw
		if len(data) > rs.MaxData() {
			data = data[:rs.MaxData()]
		}
		if len(data) == 0 {
			return
		}
		cw, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]byte, len(cw))
		for k := 0; k+1 < len(flips) && k < 2*np; k += 2 {
			errs[int(flips[k])%len(cw)] ^= flips[k+1]
		}
		nerr := 0
		for i, e := range errs {
			if e != 0 {
				cw[i] ^= e
				nerr++
			}
		}
		got, corrected, err := rs.DecodeInPlace(cw)
		if nerr <= rs.CorrectableErrors() {
			if err != nil || corrected != nerr || !bytes.Equal(got, data) {
				t.Fatalf("np=%d len=%d: %d errors gave corrected=%d err=%v, data restored=%v",
					np, len(cw), nerr, corrected, err, bytes.Equal(got, data))
			}
		}
		if nerr > 0 && err == nil && corrected == 0 {
			t.Fatalf("np=%d len=%d: %d corrupted bytes reported clean", np, len(cw), nerr)
		}
	})
}
