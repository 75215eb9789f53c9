package dram

import "xedsim/internal/ecc"

// Scaling faults (§II-C, §VII): birthtime single-bit weak cells whose
// density grows as DRAM scales. The paper assumes a scaling-fault rate of
// 10^-4 per bit and that manufacturers guarantee at most one faulty bit per
// 64-bit on-die word (multi-bit words are repaired by row/column sparing at
// test time). On-Die ECC exists precisely to correct these.
//
// The functional model cannot enumerate 2^27 words per chip eagerly, so
// scaling faults are evaluated lazily and deterministically: a hash of
// (chip seed, word index) decides whether a word contains a weak bit and
// which of its 72 cells it is.

// ScalingProfile configures per-chip scaling faults.
type ScalingProfile struct {
	// Rate is the per-bit fault probability (the paper sweeps 10^-4,
	// 10^-5, 10^-6 in Table III).
	Rate float64
	// Seed decorrelates chips.
	Seed uint64
}

// wordFaultThreshold converts the per-bit rate into a per-word "has a weak
// bit" threshold on a 64-bit hash: P(word faulty) = 1-(1-r)^72 ≈ 72r for
// the small rates of interest. We use the exact complement computed in
// float64.
func (p ScalingProfile) wordFaultThreshold() uint64 {
	if p.Rate <= 0 {
		return 0
	}
	q := 1.0
	for i := 0; i < 72; i++ {
		q *= 1 - p.Rate
	}
	prob := 1 - q
	if prob >= 1 {
		return ^uint64(0)
	}
	return uint64(prob * float64(1<<63) * 2)
}

// SetScaling enables lazy scaling-fault evaluation on the chip. A zero
// rate disables it.
func (c *Chip) SetScaling(p ScalingProfile) {
	c.scaling = p
	c.scalingThreshold = p.wordFaultThreshold()
}

// scalingBit returns (bit index, true) if the word at index idx contains a
// weak cell.
func (c *Chip) scalingBit(idx uint64) (int, bool) {
	if c.scalingThreshold == 0 {
		return 0, false
	}
	h := mix(c.scaling.Seed ^ idx ^ 0xabcdef12345)
	if h >= c.scalingThreshold {
		return 0, false
	}
	return int(mix(h) % 72), true
}

// applyScaling corrupts a read codeword with the word's weak cells.
func (c *Chip) applyScaling(a WordAddr, cw ecc.Codeword72) (ecc.Codeword72, bool) {
	if bit, ok := c.scalingBit(c.geom.index(a)); ok {
		return cw.FlipBit(bit), true
	}
	return cw, false
}
