package dram

import (
	"fmt"

	"xedsim/internal/ecc"
)

// Rank is one rank of a DIMM: a set of chips sharing the address bus, each
// contributing a 64-bit beat per cache-line access (x8 devices send 8 bits
// on each of 8 bursts, §II-A). On a 9-chip ECC-DIMM chips 0..7 carry data
// and chip 8 carries either DIMM-level SECDED (baseline) or XED's RAID-3
// parity, depending on the controller driving it.
type Rank struct {
	geom  Geometry
	chips []*Chip
}

// NewRank builds a rank of n identical chips. The paper's configurations:
// n=8 (Non-ECC DIMM), n=9 (ECC-DIMM / XED), n=18 (Chipkill pair),
// n=36 (Double-Chipkill gang). It rejects non-positive chip counts,
// invalid geometries and nil code factories.
func NewRank(n int, geom Geometry, code func() ecc.Code64) (*Rank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dram: rank needs at least one chip, got %d", n)
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if code == nil {
		return nil, fmt.Errorf("dram: rank needs an on-die code factory")
	}
	r := &Rank{geom: geom, chips: make([]*Chip, n)}
	for i := range r.chips {
		r.chips[i] = NewChip(geom, code())
	}
	return r, nil
}

// MustNewRank is NewRank for statically known shapes; it panics on the
// errors NewRank would return.
func MustNewRank(n int, geom Geometry, code func() ecc.Code64) *Rank {
	r, err := NewRank(n, geom, code)
	if err != nil {
		panic(err)
	}
	return r
}

// Chips returns the number of chips in the rank.
func (r *Rank) Chips() int { return len(r.chips) }

// Chip returns chip i for direct manipulation (fault injection, MRS).
func (r *Rank) Chip(i int) *Chip { return r.chips[i] }

// Geometry returns the per-chip geometry.
func (r *Rank) Geometry() Geometry { return r.geom }

// SetXEDEnable programs the XED-Enable register of every chip.
func (r *Rank) SetXEDEnable(on bool) {
	for _, c := range r.chips {
		c.SetXEDEnable(on)
	}
}

// WriteLine writes one cache line: beat i goes to chip i. len(beats) must
// equal the chip count.
func (r *Rank) WriteLine(a WordAddr, beats []uint64) {
	if len(beats) != len(r.chips) {
		panic(fmt.Sprintf("dram: %d beats for %d chips", len(beats), len(r.chips)))
	}
	for i, c := range r.chips {
		c.Write(a, beats[i])
	}
}

// ReadLineInto reads one cache line, returning each chip's bus word in
// out's backing array when it has capacity for the rank's chip count
// (allocating otherwise). Controllers keep one such buffer per rank so
// steady-state reads never allocate.
func (r *Rank) ReadLineInto(a WordAddr, out []ReadResult) []ReadResult {
	if cap(out) < len(r.chips) {
		out = make([]ReadResult, len(r.chips))
	} else {
		out = out[:len(r.chips)]
	}
	for i, c := range r.chips {
		out[i] = c.Read(a)
	}
	return out
}

// InjectChipFailure marks chip idx as failed at the given granularity.
func (r *Rank) InjectChipFailure(idx int, f Fault) {
	r.chips[idx].InjectFault(f)
}
