package ecc

// RSDecoder is reusable decode state for one RS code: every intermediate
// polynomial of the errors-and-erasures decoder (syndromes, erasure and
// error locators, evaluator, Berlekamp-Massey registers) lives in buffers
// preallocated at construction, so a warm decoder performs syndrome checks
// and full decodes without heap allocation. A decoder is NOT safe for
// concurrent use; give each memory controller (or goroutine) its own.
type RSDecoder struct {
	rs *RS

	syn         []uint8 // R syndromes
	gamma       []uint8 // erasure locator, degree <= R
	xi          []uint8 // modified syndromes Γ·S, up to 2R coefficients
	lambda      []uint8 // combined locator sigma·Γ, degree <= R
	omega       []uint8 // error evaluator S·Λ, up to 2R coefficients
	lambdaPrime []uint8 // formal derivative of lambda
	bmC, bmB    []uint8 // Berlekamp-Massey connection polynomials
	bmT         []uint8 // Berlekamp-Massey update scratch
	positions   []int   // Chien-search roots (polynomial degrees)
	mags        []uint8 // Forney magnitudes, parallel to positions
}

// NewDecoder allocates a decoder with all scratch sized for the code.
func (rs *RS) NewDecoder() *RSDecoder {
	n := rs.K + rs.R
	return &RSDecoder{
		rs:          rs,
		syn:         make([]uint8, rs.R),
		gamma:       make([]uint8, 0, rs.R+1),
		xi:          make([]uint8, 0, 2*rs.R),
		lambda:      make([]uint8, 0, 2*rs.R+1),
		omega:       make([]uint8, 0, 2*rs.R+1),
		lambdaPrime: make([]uint8, 0, 2*rs.R),
		bmC:         make([]uint8, 2*rs.R+2),
		bmB:         make([]uint8, 2*rs.R+2),
		bmT:         make([]uint8, 2*rs.R+2),
		positions:   make([]int, 0, n),
		mags:        make([]uint8, 0, n),
	}
}

// DecodeErasures is the in-place errors-and-erasures decoder: the symbol
// indices in erasures (known-bad chips named by XED catch-words) plus up to
// floor((R-len(erasures))/2) unknown symbol errors are corrected directly
// in cw. It returns StatusOK for a clean word, StatusCorrected after
// repairing errors, and StatusDetected when the syndromes fit no
// correctable pattern; cw is modified only when the result is
// StatusCorrected.
func (d *RSDecoder) DecodeErasures(cw []uint8, erasures []int) DecodeStatus {
	rs := d.rs
	n := rs.K + rs.R
	if len(cw) != n {
		panic("ecc: RS Decode codeword length mismatch")
	}
	if len(erasures) > rs.R {
		return StatusDetected
	}
	syn := rs.SyndromesInto(cw, d.syn[:0])
	allZero := true
	for _, s := range syn {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		// Clean word — including the case where erasures were declared
		// but the "erased" symbols happen to hold correct data (e.g. a
		// catch-word collision, §V-D). Nothing to fix.
		return StatusOK
	}

	// Erasure locator Γ(x) = Π (1 - alpha^{p_i} x), built incrementally in
	// place: multiplying by (1 + a·x) is new[i] = old[i] ^ a·old[i-1],
	// which a high-to-low sweep computes without a second buffer.
	gamma := d.gamma[:1]
	gamma[0] = 1
	for _, e := range erasures {
		if e < 0 || e >= n {
			panic("ecc: RS erasure index out of range")
		}
		a := gfPow(rs.position(e))
		gamma = append(gamma, 0)
		for i := len(gamma) - 1; i >= 1; i-- {
			gamma[i] ^= gfMul(gamma[i-1], a)
		}
	}
	// Modified syndromes: Ξ(x) = Γ(x)·S(x) mod x^R.
	xi := polyMulInto(gamma, syn, d.xi)
	if len(xi) > rs.R {
		xi = xi[:rs.R]
	}

	// Berlekamp-Massey for the error locator sigma(x), allowing
	// t <= (R - e)/2 unknown errors. Only the modified syndromes with
	// index >= e are free of erasure contributions (Forney syndromes),
	// so BM runs on that tail.
	e := len(erasures)
	tMax := (rs.R - e) / 2
	sigma := d.berlekampMassey(xi[e:], tMax)
	if sigma == nil {
		return StatusDetected
	}

	// Combined locator Λ(x) = sigma(x)·Γ(x); roots give all bad positions.
	lambda := polyMulInto(sigma, gamma, d.lambda)
	positions := d.positions[:0]
	for pos := 0; pos < n; pos++ {
		if polyEval(lambda, gfPow(-pos)) == 0 {
			positions = append(positions, pos)
		}
	}
	if len(positions) != len(lambda)-1 {
		// Locator degree does not match its root count: uncorrectable.
		return StatusDetected
	}

	// Forney: error magnitude at position p is
	//   e_p = Omega(X^-1) / Λ'(X^-1),  X = alpha^p,
	// with Omega(x) = S(x)·Λ(x) mod x^R.
	omega := polyMulInto(syn, lambda, d.omega)
	if len(omega) > rs.R {
		omega = omega[:rs.R]
	}
	lambdaPrime := polyDerivInto(lambda, d.lambdaPrime)

	mags := d.mags[:0]
	for _, pos := range positions {
		xInv := gfPow(-pos)
		den := polyEval(lambdaPrime, xInv)
		if den == 0 {
			return StatusDetected
		}
		// With first generator root alpha^0 the magnitude carries an
		// extra X = alpha^pos factor: e = X·Omega(X^-1)/Λ'(X^-1).
		mags = append(mags, gfMul(gfPow(pos), gfDiv(polyEval(omega, xInv), den)))
	}
	// Verify before touching cw: syndromes are linear, so flipping mag at
	// degree pos moves syndrome j by mag·alpha^{j·pos}. The corrected word
	// is only committed when every adjusted syndrome is zero.
	for j := 0; j < rs.R; j++ {
		v := syn[j]
		for i, pos := range positions {
			v ^= gfMul(mags[i], gfPow(j*pos))
		}
		if v != 0 {
			return StatusDetected
		}
	}
	for i, pos := range positions {
		cw[rs.symbolAt(pos)] ^= mags[i]
	}
	return StatusCorrected
}

// berlekampMassey finds the minimal error-locator polynomial consistent
// with the syndrome sequence, or nil if its degree would exceed tMax (more
// errors than the remaining correction budget). The returned slice is
// backed by decoder scratch and is valid until the next decode.
func (d *RSDecoder) berlekampMassey(syn []uint8, tMax int) []uint8 {
	c := d.bmC[:1]
	c[0] = 1
	b := d.bmB[:1]
	b[0] = 1
	l := 0
	m := 1
	var bCoef uint8 = 1
	for i := 0; i < len(syn); i++ {
		// Discrepancy.
		disc := syn[i]
		for j := 1; j <= l && j < len(c); j++ {
			disc ^= gfMul(c[j], syn[i-j])
		}
		if disc == 0 {
			m++
			continue
		}
		scale := gfDiv(disc, bCoef)
		if 2*l <= i {
			// Save c, then c ^= scale·x^m·b and adopt the saved copy as
			// the new b — realised by swapping the two scratch arrays so
			// neither update clobbers the other.
			tLen := len(c)
			copy(d.bmT[:tLen], c)
			c = xorShiftedScaled(c, b, m, scale)
			l = i + 1 - l
			d.bmB, d.bmT = d.bmT, d.bmB
			b = d.bmB[:tLen]
			bCoef = disc
			m = 1
		} else {
			c = xorShiftedScaled(c, b, m, scale)
			m++
		}
	}
	// Trim trailing zeros.
	for len(c) > 1 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	if l > tMax || len(c)-1 != l {
		return nil
	}
	return c
}

// xorShiftedScaled computes c ^= scale·x^shift·b in place, growing c within
// its backing array as needed.
func xorShiftedScaled(c, b []uint8, shift int, scale uint8) []uint8 {
	newLen := len(c)
	if shift+len(b) > newLen {
		newLen = shift + len(b)
	}
	old := len(c)
	c = c[:newLen]
	for j := old; j < newLen; j++ {
		c[j] = 0
	}
	for j, bj := range b {
		c[shift+j] ^= gfMul(bj, scale)
	}
	return c
}
