package ecc

// Arithmetic over GF(2⁸), the symbol field for the Chipkill and
// Double-Chipkill Reed-Solomon codes (§II-D2, §IX). Each DRAM chip
// contributes one 8-bit symbol per beat (x8 devices) or one 4-bit nibble
// zero-extended to a symbol (x4 devices), so symbol-level correction equals
// chip-level correction.

// gfPoly is the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11D), the common
// choice for byte-oriented Reed-Solomon codes.
const gfPoly = 0x11d

// gf holds the precomputed log/antilog tables. gfExp is doubled so that
// gfMul can skip the mod-255 reduction on the exponent sum.
var (
	gfExp [512]uint8
	gfLog [256]uint16
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = uint8(x)
		gfLog[x] = uint16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b uint8) uint8 {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfDiv divides a by b. It panics on division by zero.
func gfDiv(a, b uint8) uint8 {
	if b == 0 {
		panic("ecc: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]+255-gfLog[b]]
}

// gfPow returns alpha^n for the generator alpha = 0x02.
func gfPow(n int) uint8 {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// --- polynomial helpers (coefficients low-degree first) ---

// polyEval evaluates p at x by Horner's rule.
func polyEval(p []uint8, x uint8) uint8 {
	var y uint8
	for i := len(p) - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ p[i]
	}
	return y
}

// polyMul multiplies two polynomials.
func polyMul(a, b []uint8) []uint8 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]uint8, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= gfMul(ai, bj)
		}
	}
	return out
}

// polyMulInto multiplies a and b into out's backing array, which must not
// alias either operand and must have capacity len(a)+len(b)-1.
func polyMulInto(a, b, out []uint8) []uint8 {
	out = out[:len(a)+len(b)-1]
	for i := range out {
		out[i] = 0
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= gfMul(ai, bj)
		}
	}
	return out
}

// polyDerivInto writes the formal derivative of p into out's backing array
// (capacity len(p)-1, len(p) >= 2, must not alias p). In characteristic 2
// the even-power terms vanish and odd powers keep their coefficient.
func polyDerivInto(p, out []uint8) []uint8 {
	out = out[:len(p)-1]
	for i := range out {
		out[i] = 0
	}
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return out
}
