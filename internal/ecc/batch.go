package ecc

// Table-driven syndrome evaluation. The Horner loop in syndrome() costs
// one gfMul (two table lookups plus an add) per codeword symbol per
// syndrome. For a fixed code the per-symbol contribution to syndrome j is
// a pure function of (chip position, symbol value):
//
//	contrib(j, pos, sym) = sym · alpha^{j·degree(pos)}
//
// so the whole inner product collapses into R·N precomputed 256-entry
// rows: evaluating a syndrome set is then one table load and one XOR per
// nonzero symbol per syndrome. The rows are laid out position-major —
// all R rows for one chip position are contiguous — so walking a codeword
// touches N·R·256 bytes sequentially (≤ 36 KiB for Double-Chipkill's
// RS(36,32)), and successive codewords reuse the same hot lines.
//
// The Horner path (synHorner) is kept verbatim as the oracle; the tables
// must stay bit-identical to it (TestSyndromeTablesMatchHorner,
// FuzzRSRoundTrip).

// synTabLimit caps the eager table size (in entries) built by NewRS. The
// paper's codes sit far below it; degenerate large codes (K+R near 255
// with many check symbols) skip the tables and keep the Horner path, so
// constructing them stays cheap.
const synTabLimit = 1 << 20

// buildSynTab precomputes the contribution rows. Entry layout:
//
//	tab[(pos*R+j)<<8 | sym] = sym · alpha^{j·degree(pos)}
func (rs *RS) buildSynTab() {
	n := rs.K + rs.R
	if n*rs.R*256 > synTabLimit {
		return
	}
	tab := make([]uint8, n*rs.R*256)
	for pos := 0; pos < n; pos++ {
		for j := 0; j < rs.R; j++ {
			coef := gfPow(j * rs.position(pos))
			row := tab[(pos*rs.R+j)<<8:]
			for sym := 1; sym < 256; sym++ {
				row[sym] = gfMul(uint8(sym), coef)
			}
		}
	}
	rs.synTab = tab
}

// synTabbed accumulates all R syndromes of cw into syn (len R, zeroed by
// the caller) through the contribution tables, position-major.
func (rs *RS) synTabbed(cw, syn []uint8) {
	r := rs.R
	for pos, c := range cw {
		if c == 0 {
			continue
		}
		row := rs.synTab[(pos*r)<<8+int(c):]
		for j := 0; j < r; j++ {
			syn[j] ^= row[j<<8]
		}
	}
}

// synHorner is the reference evaluation: R independent Horner passes.
func (rs *RS) synHorner(cw, syn []uint8) {
	for j := 0; j < rs.R; j++ {
		syn[j] = rs.syndrome(cw, gfPow(j))
	}
}
