package ecc

import "math/bits"

// NewHsiao returns a (72,64) odd-weight-column SECDED code (Hsiao, 1970) —
// the code most commercial ECC DIMMs actually use. Every column of the
// parity-check matrix has odd weight, which buys two properties the
// classic Hamming arrangement lacks:
//
//   - single- and double-error discrimination by syndrome *parity* alone
//     (an even-weight syndrome never names a column), with no separate
//     overall-parity bit; and
//   - minimal, balanced row weights, i.e. the shallowest XOR trees.
//
// Data columns are the 56 weight-3 bytes in ascending order, then the first
// 8 weight-5 bytes; check columns are the identity — the canonical (72,64)
// Hsiao construction. The paper's Table II contrasts Hamming and CRC8-ATM;
// Hsiao slots between them (better random-error detection than classic
// Hamming, still without CRC8-ATM's burst guarantee), so it is included
// both for completeness and as the natural third column for the
// detection-rate analysis.
func NewHsiao() *LinearCode64 {
	var h HMatrix72
	i := 0
	for _, w := range [...]int{3, 5} {
		for v := 1; v < 256 && i < dataBits; v++ {
			if bits.OnesCount8(uint8(v)) == w {
				h[i] = uint8(v)
				i++
			}
		}
	}
	for a := 0; a < checkBits; a++ {
		h[dataBits+a] = 1 << uint(a)
	}
	return MustLinearCode64("(72,64) Hsiao", h)
}
