package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// DataChips is the number of data chips on the x8 ECC-DIMM; chip 8 is the
// parity chip.
const DataChips = 8

// parityChip is the index of the RAID-3 parity chip.
const parityChip = 8

// Line is one 64-byte cache line as eight 64-bit beats, beat i supplied by
// data chip i.
type Line = [8]uint64

// Controller is the XED memory controller for one rank of a 9-chip
// ECC-DIMM (§V). It owns the catch-word registry, performs RAID-3
// reconstruction, falls back to serial-mode reads for multi-catch-word
// lines, and runs fault diagnosis when the on-die code misses an error.
type Controller struct {
	raid3
	cw catchWords
}

// Option customises a Controller.
type Option func(*Controller)

// WithFCTEntries sets the Faulty-row Chip Tracker capacity.
func WithFCTEntries(n int) Option {
	return func(c *Controller) { c.fct = NewFCT(n) }
}

// NewController takes ownership of a 9-chip rank: it programs a distinct
// random catch-word into every chip over the MRS interface and sets
// XED-Enable (§V-A boot flow). seed drives catch-word generation.
func NewController(rank *dram.Rank, seed uint64, opts ...Option) *Controller {
	if rank.Chips() != DataChips+1 {
		panic(fmt.Sprintf("core: XED needs a 9-chip ECC-DIMM, got %d chips", rank.Chips()))
	}
	c := &Controller{raid3: raid3{rank: rank, fct: NewFCT(DefaultFCTEntries)}}
	for _, o := range opts {
		o(c)
	}
	c.cw = bootCatchWords(rank, seed)
	c.flagged = c.cw.flagged
	return c
}

// FCT exposes the tracker for inspection.
func (c *Controller) FCT() *FCT { return c.fct }

// ReadLine performs one XED read with the full correction hierarchy of
// §V-§VII. The returned data is best-effort even for OutcomeDUE.
func (c *Controller) ReadLine(a dram.WordAddr) ReadResult {
	words, flagged := c.read(a)
	c.stats.CatchWordsSeen += uint64(len(flagged))

	switch len(flagged) {
	case 0:
		if ecc.CheckParity(words[:DataChips], words[parityChip]) {
			c.stats.CleanReads++
			return ReadResult{Data: toLine(words), Outcome: OutcomeClean}
		}
		// Parity mismatch with no catch-word: the on-die code missed
		// a multi-bit error (the 0.8% case, §VI) — or the parity chip
		// itself corrupted silently. Diagnose.
		return c.diagnoseAndCorrect(a, nil)
	case 1:
		return c.correctSingleErasure(words, flagged[0])
	default:
		return c.serialModeCorrect(a, flagged)
	}
}

// correctSingleErasure is the §V-C fast path: one catch-word, rebuilt from
// parity; plus §V-D collision detection.
//
// Residual SDC channel: the erasure consumes the parity word, so if a
// *different* chip's damage escaped its on-die code on this very line
// (probability ≤0.8% per Table II), the reconstruction is silently wrong.
// This coincidence term is second-order in the fault rates and sits below
// the Table IV SDC row; the invariant tests pin that silent corruption
// can only ever originate from such an on-die miss.
func (c *Controller) correctSingleErasure(words [DataChips + 1]uint64, k int) ReadResult {
	res := ReadResult{Outcome: OutcomeCorrectedErasure, FaultyChips: c.faultyOne(k)}
	// An erased parity chip leaves the data beats intact.
	if k != parityChip {
		words[k] = ecc.Reconstruct(words[:DataChips], words[parityChip], k)
		if c.cw.matches(k, words[k]) {
			// §V-D1: the "erased" value reconstructs to the catch-word
			// itself — a data/catch-word collision, not a fault. The
			// data is correct.
			res.Collision = true
			c.cw.collision(k, &c.stats)
		}
	}
	res.Data = toLine(words)
	c.stats.ErasureCorrections++
	return res
}

// serialModeCorrect handles multiple catch-words (§VII-B) with the real
// MRS dance: the controller quiesces the channel, broadcasts XED-Enable=0,
// re-reads the line (each chip's on-die engine ships its best-effort
// corrected data), restores XED-Enable, and verifies against DIMM parity.
// Pure scaling faults are single-bit and always correct on-die, so parity
// then holds; a residual mismatch means a runtime failure is hiding among
// the catch-words, which §VII-C resolves through fault diagnosis. Note the
// controller never sees per-chip decode status — only bus data and parity.
func (c *Controller) serialModeCorrect(a dram.WordAddr, flagged []int) ReadResult {
	c.rank.MRSBroadcast(dram.MRXEDEnable, 0)
	words := c.busWords(a)
	c.rank.MRSBroadcast(dram.MRXEDEnable, 1)

	if ecc.CheckParity(words[:DataChips], words[parityChip]) {
		c.stats.SerialCorrections++
		return ReadResult{Data: toLine(words), Outcome: OutcomeCorrectedSerial, FaultyChips: flagged}
	}
	// A chip beyond on-die repair is hiding among the catch-words:
	// identify it with §VI diagnosis and rebuild from parity (§VII-C).
	return c.diagnoseAndCorrect(a, words[:])
}
