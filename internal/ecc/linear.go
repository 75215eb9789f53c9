package ecc

import (
	"fmt"
	"math/bits"

	"xedsim/internal/simrand"
)

// LinearCode64 is the package's one (72,64) codec: it compiles any
// systematic (72,64) linear code, given by its 8×72 parity-check matrix,
// into table-sliced Encode, IsValid and Decode. The matrix is the
// representation the BEER/HARP related-work thread (Patel et al.,
// arXiv:2009.07985 and arXiv:2109.12697) reasons about, and the named codes
// (NewHamming, NewHsiao, NewCRC8ATM) are just matrices compiled by it. The
// tests hold it to a naive definitional codec that XORs matrix columns
// (FuzzLinearCodeVsNaive).

// HMatrix72 is an 8×72 parity-check matrix over GF(2), stored column-major:
// entry i is column i — the 8-bit syndrome produced by flipping codeword
// bit i alone, in Codeword72 numbering (0..63 data, 64..71 check). A word
// cw is a codeword iff the XOR of the columns of its set bits is zero.
type HMatrix72 [72]uint8

// DataColumns and CheckColumns bound the two column groups.
const (
	dataBits  = 64
	checkBits = 8
	codeBits  = dataBits + checkBits
)

// String renders the matrix as its 72 column bytes, data then check,
// grouped by eight — compact enough for verdict details and CLI dumps.
func (h HMatrix72) String() string {
	out := make([]byte, 0, 3*codeBits+16)
	for i, c := range h {
		switch {
		case i == dataBits:
			out = append(out, " |"...)
		case i > 0 && i%8 == 0:
			out = append(out, ' ')
		}
		out = append(out, ' ')
		const hexdigits = "0123456789abcdef"
		out = append(out, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(out)
}

// checkBasis returns the columns of the inverse of the 8×8 check submatrix
// (columns 64..71): basis[b] is the check byte whose columns XOR to the
// unit syndrome 1<<b. It errors when the submatrix is singular, i.e. the
// code is not systematic in the Codeword72 layout.
func (h *HMatrix72) checkBasis() ([checkBits]uint8, error) {
	var syn, cmb [checkBits]uint8 // rows of [ Hc | I ], reduced in lockstep
	for a := 0; a < checkBits; a++ {
		syn[a], cmb[a] = h[dataBits+a], 1<<uint(a)
	}
	for bit := 0; bit < checkBits; bit++ {
		p := -1
		for r := bit; r < checkBits; r++ {
			if syn[r]>>uint(bit)&1 == 1 {
				p = r
				break
			}
		}
		if p < 0 {
			return cmb, fmt.Errorf("ecc: check columns are singular (no pivot for syndrome bit %d); the matrix is not systematic", bit)
		}
		syn[bit], syn[p] = syn[p], syn[bit]
		cmb[bit], cmb[p] = cmb[p], cmb[bit]
		for r := 0; r < checkBits; r++ {
			if r != bit && syn[r]>>uint(bit)&1 == 1 {
				syn[r] ^= syn[bit]
				cmb[r] ^= cmb[bit]
			}
		}
	}
	var basis [checkBits]uint8
	for b := range basis {
		basis[b] = cmb[b] // Gauss-Jordan left syn[b] == 1<<b
	}
	return basis, nil
}

// Canonical returns the row-equivalent matrix whose check columns are the
// identity: Hc⁻¹·H. Row transforms relabel syndromes without changing the
// codeword set, so two matrices describe the same code iff their canonical
// forms are equal — and the canonical form is exactly what black-box
// inference (internal/infer) can recover, because post-correction data
// reveals which column matched, never how the syndrome was spelled.
func (h HMatrix72) Canonical() (HMatrix72, error) {
	basis, err := h.checkBasis()
	if err != nil {
		return h, err
	}
	var out HMatrix72
	for i, c := range h {
		var v uint8
		for b := 0; c != 0; b, c = b+1, c>>1 {
			if c&1 == 1 {
				v ^= basis[b]
			}
		}
		out[i] = v
	}
	return out, nil
}

// LinearCode64 is a (72,64) systematic linear code constructed from an
// arbitrary parity-check matrix. Encode, IsValid and Decode are
// table-sliced: one 256-entry lookup per data byte, one per check byte.
type LinearCode64 struct {
	name string
	h    HMatrix72
	// serial[k] is the Codeword72 bit index at serial (wire) position k;
	// see SerialOrder.
	serial [codeBits]int
	// posForSyndrome inverts the columns: entries are position+1, 0 means
	// "no single-bit error maps here". Collisions are rejected at
	// construction — see NewLinearCode64.
	posForSyndrome [256]uint8
	// encodeTables[b][v] is the syndrome contribution of data byte b
	// holding value v; checkSyn[v] of the check byte holding v.
	encodeTables [8][256]uint8
	checkSyn     [256]uint8
	// checkFor[s] is the unique check byte whose columns XOR to s (the
	// inverse of the check submatrix, expanded to all 256 syndromes).
	checkFor [256]uint8
}

// NewLinearCode64 validates h and builds the code. Construction fails when
//
//   - any column is zero (a flip of that bit would be invisible: not SEC),
//   - two columns collide (their syndromes alias, so a detectable double
//     error would be silently mis-corrected — the posForSyndrome overwrite
//     bug this constructor exists to reject), or
//   - the check submatrix is singular (no systematic encoder exists).
//
// The serial order is the Codeword72 order: data bits, then check bits.
func NewLinearCode64(name string, h HMatrix72) (*LinearCode64, error) {
	c := &LinearCode64{name: name, h: h}
	for i, col := range h {
		c.serial[i] = i
		if col == 0 {
			return nil, fmt.Errorf("ecc: column %d of %q is zero; bit %d would be undetectable", i, name, i)
		}
		if prev := c.posForSyndrome[col]; prev != 0 {
			return nil, fmt.Errorf("ecc: columns %d and %d of %q share syndrome %#02x; double errors would mis-correct", int(prev)-1, i, name, col)
		}
		c.posForSyndrome[col] = uint8(i + 1)
	}
	basis, err := h.checkBasis()
	if err != nil {
		return nil, fmt.Errorf("%v (code %q)", err, name)
	}
	for v := 0; v < 256; v++ {
		var enc [8]uint8 // per-data-byte accumulators for this value
		var cs, cf uint8
		for k := 0; k < 8; k++ {
			if v>>uint(k)&1 == 0 {
				continue
			}
			for b := 0; b < 8; b++ {
				enc[b] ^= h[b*8+k]
			}
			cs ^= h[dataBits+k]
			cf ^= basis[k]
		}
		for b := 0; b < 8; b++ {
			c.encodeTables[b][v] = enc[b]
		}
		c.checkSyn[v] = cs
		c.checkFor[v] = cf
	}
	return c, nil
}

// MustLinearCode64 is NewLinearCode64 for matrices known valid at build
// time; it panics on error.
func MustLinearCode64(name string, h HMatrix72) *LinearCode64 {
	c, err := NewLinearCode64(name, h)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Code64.
func (c *LinearCode64) Name() string { return c.name }

// Matrix returns a copy of the parity-check matrix.
func (c *LinearCode64) Matrix() HMatrix72 { return c.h }

// SerialOrder returns the Codeword72 bit index at each of the 72 serial
// positions: the physical transmission order in which burst errors are
// contiguous. It is classical position order 1..72 for Hamming, the
// polynomial (wire) order d63..d0, c7..c0 for CRC8-ATM, and the Codeword72
// order for every other code. Table II's burst rows are measured along it.
func (c *LinearCode64) SerialOrder() [72]int { return c.serial }

func (c *LinearCode64) dataSyndrome(d uint64) uint8 {
	t := &c.encodeTables
	return t[0][uint8(d)] ^ t[1][uint8(d>>8)] ^ t[2][uint8(d>>16)] ^ t[3][uint8(d>>24)] ^
		t[4][uint8(d>>32)] ^ t[5][uint8(d>>40)] ^ t[6][uint8(d>>48)] ^ t[7][uint8(d>>56)]
}

func (c *LinearCode64) rawSyndrome(cw Codeword72) uint8 {
	return c.dataSyndrome(cw.Data) ^ c.checkSyn[cw.Check]
}

// Encode implements Code64: the check byte is the unique solution of
// Hc·check = H_d·data, one table lookup away.
func (c *LinearCode64) Encode(data uint64) Codeword72 {
	return Codeword72{Data: data, Check: c.checkFor[c.dataSyndrome(data)]}
}

// IsValid implements Code64.
func (c *LinearCode64) IsValid(cw Codeword72) bool { return c.rawSyndrome(cw) == 0 }

// Decode implements Code64 with one rule: a zero syndrome is clean, a
// syndrome that names a column is corrected by flipping that bit, and any
// other syndrome is detected. No parity gate is needed to keep a SECDED
// code from mis-correcting double errors: if some functional u has
// ⟨u, column⟩ = 1 for every column (0x80 for Hamming's overall-parity row,
// 0xff for Hsiao's odd columns), an even-weight error has ⟨u, syndrome⟩ = 0
// and so never names a column.
func (c *LinearCode64) Decode(cw Codeword72) (uint64, DecodeStatus) {
	s := c.rawSyndrome(cw)
	if s == 0 {
		return cw.Data, StatusOK
	}
	pos := c.posForSyndrome[s]
	if pos == 0 {
		return cw.Data, StatusDetected
	}
	corrected := cw.FlipBit(int(pos - 1))
	return corrected.Data, StatusCorrected
}

// RandomSECDED draws a uniformly random (72,64) SECDED code in canonical
// systematic form: identity check columns and 64 distinct data columns
// sampled from the 120 odd-weight-≥3 bytes. Canonical form loses no
// generality — every SECDED code is row-equivalent to exactly one such
// matrix (see HMatrix72.Canonical) — and it is the form BEER-style
// inference recovers, which is what makes the conformance claim's
// "bit-for-bit H equality" well defined. The draw consumes 64 bounded
// variates from rng, so a fixed seed names a fixed code.
func RandomSECDED(rng *simrand.Source) *LinearCode64 {
	// The candidate pool: every odd-weight byte of weight >= 3. Weight-1
	// bytes are the check columns; an even-weight column would break the
	// parity functional u = 0xff that keeps Decode from mis-correcting
	// double errors.
	var cand [120]uint8
	n := 0
	for v := 1; v < 256; v++ {
		if w := bits.OnesCount8(uint8(v)); w >= 3 && w%2 == 1 {
			cand[n] = uint8(v)
			n++
		}
	}
	var h HMatrix72
	for i := 0; i < dataBits; i++ {
		j := i + rng.Intn(n-i) // partial Fisher-Yates: 64 distinct picks
		cand[i], cand[j] = cand[j], cand[i]
		h[i] = cand[i]
	}
	for a := 0; a < checkBits; a++ {
		h[dataBits+a] = 1 << uint(a)
	}
	// A stable fingerprint of the draw, so logs and verdicts can name the
	// code without printing 72 columns.
	tag := uint64(0xcbf29ce484222325)
	for _, col := range h {
		tag = (tag ^ uint64(col)) * 0x100000001b3
	}
	return MustLinearCode64(fmt.Sprintf("(72,64) random SECDED %08x", uint32(tag)), h)
}
