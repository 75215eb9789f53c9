package ecc

// NewCRC8ATM returns the (72,64) CRC8-ATM SECDED code the paper recommends
// for On-Die ECC (§V-E). The generator is the ATM HEC polynomial
// x⁸ + x² + x + 1 (0x07), standardised in ITU-T I.432.1 for cell-header
// protection. Over a 64-bit message this code has Hamming distance 4, so it
// corrects any single-bit error and detects any double-bit error — the same
// SECDED guarantee as Hamming — while additionally detecting *all* burst
// errors of length ≤ 8 (a property of any degree-8 CRC), which is exactly
// the failure signature of a chip-internal multi-bit fault. Table II of the
// paper contrasts the two codes.
//
// The check byte is the remainder of data(x)·x⁸ mod g(x), the data word
// shifted in most-significant bit first (network order, as in ATM cells).
// A CRC is linear, so data bit i contributes the column x^(i+8) mod g(x),
// and each check bit contributes itself. The serial order is the wire
// order d63..d0, c7..c0.
func NewCRC8ATM() *LinearCode64 {
	var h HMatrix72
	col := uint8(crc8Poly) // x⁸ mod g(x)
	for i := 0; i < dataBits; i++ {
		h[i] = col
		col = col<<1 ^ crc8Poly*(col>>7) // multiply by x mod g(x)
	}
	var serial [codeBits]int
	for k := 0; k < dataBits; k++ {
		serial[k] = dataBits - 1 - k
	}
	for a := 0; a < checkBits; a++ {
		h[dataBits+a] = 1 << uint(a)
		serial[dataBits+a] = codeBits - 1 - a
	}
	c := MustLinearCode64("(72,64) CRC8-ATM", h)
	c.serial = serial
	return c
}

// crc8Poly is the ATM HEC generator polynomial x^8+x^2+x+1, low 8 bits.
const crc8Poly = 0x07
