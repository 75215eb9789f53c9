package ecc

import (
	"errors"
	"fmt"
)

// Reed-Solomon symbol codes over GF(2⁸).
//
// Chipkill assigns one code symbol per DRAM chip, so correcting a symbol
// corrects a whole-chip failure (§II-D2). The paper's three symbol-code
// configurations are all shortened RS codes:
//
//   - Chipkill ("SSC-DSD"): 16 data + 2 check symbols (18 chips). Corrects
//     any single symbol error; flags inconsistent syndromes (two-symbol
//     errors) as detected-uncorrectable.
//   - Double-Chipkill: 32 data + 4 check symbols (36 chips). Corrects any
//     two symbol errors (Berlekamp-Massey + Chien + Forney).
//   - XED on Chipkill (§IX): 16 data + 2 check symbols used as an *erasure*
//     code: with the faulty chips named by catch-words, two check symbols
//     recover two erased symbols — Double-Chipkill-level correction from
//     Single-Chipkill hardware.
//
// Symbols are indexed by chip: data symbols first, then check symbols.
// Codeword symbol i is associated with evaluation point alpha^i.

// RS is a shortened systematic Reed-Solomon code with K data symbols and R
// check symbols (N = K+R total). The generator polynomial has roots
// alpha^0 .. alpha^{R-1}.
type RS struct {
	K, R int
	gen  []uint8 // generator polynomial, low-degree first, monic
	// synTab holds the per-position per-symbol syndrome contribution
	// rows (batch.go); nil for codes above synTabLimit, which keep the
	// Horner path.
	synTab []uint8
}

// ErrTooManyErasures is returned when more erasures are supplied than the
// code's check symbols can recover.
var ErrTooManyErasures = errors.New("ecc: erasure count exceeds check symbols")

// NewRS constructs an RS(K+R, K) code. It panics for non-positive sizes or
// codes longer than the field allows (K+R > 255).
func NewRS(k, r int) *RS {
	if k <= 0 || r <= 0 || k+r > 255 {
		panic(fmt.Sprintf("ecc: invalid RS parameters k=%d r=%d", k, r))
	}
	gen := []uint8{1}
	for i := 0; i < r; i++ {
		gen = polyMul(gen, []uint8{gfPow(i), 1})
	}
	rs := &RS{K: k, R: r, gen: gen}
	rs.buildSynTab()
	return rs
}

// Encode appends R check symbols to the K data symbols in data, returning a
// full codeword of length K+R. It panics if len(data) != K.
func (rs *RS) Encode(data []uint8) []uint8 {
	return rs.EncodeInto(data, nil)
}

// EncodeInto is Encode writing into cw's backing array when it has capacity
// K+R (allocating otherwise). The check symbols are computed directly in
// cw[K:], which doubles as the LFSR remainder register, so a warm buffer
// makes encoding allocation-free. data may alias cw[:K].
func (rs *RS) EncodeInto(data, cw []uint8) []uint8 {
	if len(data) != rs.K {
		panic("ecc: RS Encode data length mismatch")
	}
	// Systematic encoding: codeword = data · x^R mod gen appended.
	// Represent message with data symbol i at coefficient R + (K-1-i) so
	// symbol order matches chip order after the remainder is prefixed.
	n := rs.K + rs.R
	if cap(cw) < n {
		cw = make([]uint8, n)
	} else {
		cw = cw[:n]
	}
	copy(cw[:rs.K], data)
	// Compute remainder of data(x)·x^R divided by gen via LFSR.
	rem := cw[rs.K:]
	for i := range rem {
		rem[i] = 0
	}
	for i := rs.K - 1; i >= 0; i-- {
		feedback := cw[i] ^ rem[rs.R-1]
		copy(rem[1:], rem[:rs.R-1])
		rem[0] = 0
		if feedback != 0 {
			for j := 0; j < rs.R; j++ {
				rem[j] ^= gfMul(rs.gen[j], feedback)
			}
		}
	}
	return cw
}

// position maps a chip/symbol index (0..K+R-1, data first) to its codeword
// polynomial degree.
func (rs *RS) position(sym int) int {
	if sym < rs.K {
		return rs.R + sym
	}
	return sym - rs.K
}

// symbolAt maps a polynomial degree back to the chip/symbol index.
func (rs *RS) symbolAt(deg int) int {
	if deg < rs.R {
		return rs.K + deg
	}
	return deg - rs.R
}

// SyndromesInto computes the R syndromes S_j = c(alpha^j) of the received
// word into syn's backing array when it has capacity R (allocating
// otherwise). All-zero syndromes mean a valid codeword. The common path is
// one pass over the codeword through the precomputed contribution rows
// (batch.go); codes too large for the tables fall back to R Horner
// evaluations walking the codeword in degree order — data symbols occupy
// degrees R..N-1 (data symbol i at degree R+i), check symbol j degree j —
// so no codeword-polynomial copy is materialised either way.
func (rs *RS) SyndromesInto(cw, syn []uint8) []uint8 {
	if len(cw) != rs.K+rs.R {
		panic("ecc: RS Syndromes codeword length mismatch")
	}
	if cap(syn) < rs.R {
		syn = make([]uint8, rs.R)
	} else {
		syn = syn[:rs.R]
		for j := range syn {
			syn[j] = 0
		}
	}
	if rs.synTab != nil {
		rs.synTabbed(cw, syn)
	} else {
		rs.synHorner(cw, syn)
	}
	return syn
}

// syndrome evaluates the codeword polynomial at x by Horner's rule, highest
// degree first: data symbols K-1..0, then check symbols R-1..0.
func (rs *RS) syndrome(cw []uint8, x uint8) uint8 {
	var y uint8
	for i := rs.K - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ cw[i]
	}
	for i := rs.R - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ cw[rs.K+i]
	}
	return y
}

// IsValid reports whether cw is a valid codeword. It does not allocate.
// With the contribution tables present it checks one syndrome at a time
// (early exit on the first nonzero); large codes fall back to Horner.
func (rs *RS) IsValid(cw []uint8) bool {
	if len(cw) != rs.K+rs.R {
		panic("ecc: RS Syndromes codeword length mismatch")
	}
	for j := 0; j < rs.R; j++ {
		var y uint8
		if rs.synTab != nil {
			base := j << 8
			for pos, c := range cw {
				if c != 0 {
					y = y ^ rs.synTab[(pos*rs.R)<<8+base+int(c)]
				}
			}
		} else {
			y = rs.syndrome(cw, gfPow(j))
		}
		if y != 0 {
			return false
		}
	}
	return true
}

// DecodeErasures corrects, on a copy of cw, the symbol indices listed in
// erasures (known-bad chips named by XED catch-words) plus up to
// floor((R-len(erasures))/2) additional unknown symbol errors, and returns
// the corrected codeword. Status is StatusOK for a clean word,
// StatusCorrected when errors were repaired, and StatusDetected when the
// syndromes are inconsistent with any correctable pattern (the word is
// returned unmodified). Like all bounded-distance decoders it mis-corrects
// some patterns beyond its correction radius. This is the
// errors-and-erasures decoder: erasure locator times error locator found by
// Berlekamp-Massey on the Forney-modified syndromes, Chien search, and
// Forney's formula for magnitudes.
// The decoder itself lives on RSDecoder (rsdecoder.go), which keeps every
// intermediate polynomial in reusable scratch; this wrapper copies cw and
// spins up a one-shot decoder for callers that prefer the allocating API.
func (rs *RS) DecodeErasures(cw []uint8, erasures []int) ([]uint8, DecodeStatus) {
	n := rs.K + rs.R
	if len(cw) != n {
		panic("ecc: RS Decode codeword length mismatch")
	}
	out := make([]uint8, n)
	copy(out, cw)
	st := rs.NewDecoder().DecodeErasures(out, erasures)
	return out, st
}

// CorrectErasuresOnly recovers up to R erased symbols assuming no other
// symbol is in error (pure erasure decoding, the XED-on-Chipkill fast path,
// §IX-A). It returns ErrTooManyErasures if len(erasures) > R.
func (rs *RS) CorrectErasuresOnly(cw []uint8, erasures []int) ([]uint8, error) {
	if len(erasures) > rs.R {
		return nil, ErrTooManyErasures
	}
	out, st := rs.DecodeErasures(cw, erasures)
	if st == StatusDetected {
		return nil, errors.New("ecc: erasure decode failed verification (errors outside erased symbols)")
	}
	return out, nil
}
