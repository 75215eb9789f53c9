package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
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
	rank       *dram.Rank
	catchWords [DataChips + 1]uint64
	rng        *simrand.Source
	fct        *FCT
	stats      Stats

	// obsReg and m mirror Stats into an obs registry when WithMetrics is
	// set; every handle is a nil no-op otherwise (see metrics.go).
	obsReg *obs.Registry
	m      controllerMetrics

	// Read-path scratch, reused across calls so steady-state reads do not
	// allocate. ReadResult.FaultyChips aliases these buffers.
	readBuf    []dram.ReadResult
	flaggedBuf [DataChips + 1]int
}

// Option customises a Controller.
type Option func(*Controller)

// WithFCTEntries sets the Faulty-row Chip Tracker capacity.
func WithFCTEntries(n int) Option {
	return func(c *Controller) { c.fct = NewFCT(n) }
}

// WithMetrics mirrors the controller's activity counters into r under
// "core.*" names (and "core.scrub.*" for its patrol scrubs). A nil
// registry leaves the controller uninstrumented.
func WithMetrics(r *obs.Registry) Option {
	return func(c *Controller) { c.obsReg = r }
}

// NewController takes ownership of a 9-chip rank: it programs a distinct
// random catch-word into every chip over the MRS interface and sets
// XED-Enable (§V-A boot flow). seed drives catch-word generation.
func NewController(rank *dram.Rank, seed uint64, opts ...Option) *Controller {
	if rank.Chips() != DataChips+1 {
		panic(fmt.Sprintf("core: XED needs a 9-chip ECC-DIMM, got %d chips", rank.Chips()))
	}
	c := &Controller{
		rank: rank,
		rng:  simrand.New(seed),
		fct:  NewFCT(DefaultFCTEntries),
	}
	for _, o := range opts {
		o(c)
	}
	c.m = newControllerMetrics(c.obsReg)
	for i := 0; i <= DataChips; i++ {
		c.catchWords[i] = c.rng.Uint64()
		rank.Chip(i).SetCatchWord(c.catchWords[i])
	}
	rank.SetXEDEnable(true)
	return c
}

// Rank exposes the underlying rank (fault injection in tests/examples).
func (c *Controller) Rank() *dram.Rank { return c.rank }

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// FCT exposes the tracker for inspection.
func (c *Controller) FCT() *FCT { return c.fct }

// WriteLine stores a cache line: the eight data beats go to chips 0..7 and
// their XOR parity to chip 8 (Equation 1).
func (c *Controller) WriteLine(a dram.WordAddr, data Line) {
	c.stats.Writes++
	c.m.writes.Inc()
	var beats [DataChips + 1]uint64
	copy(beats[:DataChips], data[:])
	beats[parityChip] = ecc.Parity(data[:])
	c.rank.WriteLine(a, beats[:])
}

// ReadLine performs one XED read with the full correction hierarchy of
// §V-§VII. The returned data is best-effort even for OutcomeDUE.
func (c *Controller) ReadLine(a dram.WordAddr) ReadResult {
	c.stats.Reads++
	c.m.reads.Inc()
	c.readBuf = c.rank.ReadLineInto(a, c.readBuf)
	raw := c.readBuf

	var words [DataChips + 1]uint64
	flagged := c.flaggedBuf[:0]
	for i := range words {
		words[i] = raw[i].Data
		if words[i] == c.catchWords[i] {
			flagged = append(flagged, i)
		}
	}
	c.stats.CatchWordsSeen += uint64(len(flagged))
	if len(flagged) > 0 {
		c.m.catchWordsSeen.Add(uint64(len(flagged)))
	}

	switch len(flagged) {
	case 0:
		if ecc.CheckParity(words[:DataChips], words[parityChip]) {
			c.stats.CleanReads++
			c.m.cleanReads.Inc()
			return ReadResult{Data: toLine(words), Outcome: OutcomeClean}
		}
		// Parity mismatch with no catch-word: the on-die code missed
		// a multi-bit error (the 0.8% case, §VI) — or the parity chip
		// itself corrupted silently. Diagnose.
		return c.diagnoseAndCorrect(a, nil)
	case 1:
		return c.correctSingleErasure(a, words, flagged[0])
	default:
		return c.serialModeCorrect(a, words, flagged)
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
func (c *Controller) correctSingleErasure(a dram.WordAddr, words [DataChips + 1]uint64, k int) ReadResult {
	res := ReadResult{Outcome: OutcomeCorrectedErasure, FaultyChips: c.faultyOne(k)}
	if k == parityChip {
		// The parity chip erred; the data beats are intact.
		res.Data = toLine(words)
	} else {
		rebuilt := ecc.Reconstruct(words[:DataChips], words[parityChip], k)
		if rebuilt == c.catchWords[k] {
			// §V-D1: the "erased" value reconstructs to the catch-word
			// itself — a data/catch-word collision, not a fault. The
			// data is correct; regenerate this chip's catch-word so
			// the expected time between collisions stays ~3.2M years.
			res.Collision = true
			c.stats.Collisions++
			c.m.collisions.Inc()
			c.regenerateCatchWord(k)
		}
		words[k] = rebuilt
		res.Data = toLine(words)
	}
	c.stats.ErasureCorrections++
	c.m.erasureCorrections.Inc()
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
func (c *Controller) serialModeCorrect(a dram.WordAddr, _ [DataChips + 1]uint64, flagged []int) ReadResult {
	c.rank.MRSBroadcast(dram.MRXEDEnable, 0)
	c.readBuf = c.rank.ReadLineInto(a, c.readBuf)
	raw := c.readBuf
	c.rank.MRSBroadcast(dram.MRXEDEnable, 1)

	var words [DataChips + 1]uint64
	for i := range words {
		words[i] = raw[i].Data
	}
	if ecc.CheckParity(words[:DataChips], words[parityChip]) {
		c.stats.SerialCorrections++
		c.m.serialCorrections.Inc()
		return ReadResult{Data: toLine(words), Outcome: OutcomeCorrectedSerial, FaultyChips: flagged}
	}
	// A chip beyond on-die repair is hiding among the catch-words:
	// identify it with §VI diagnosis and rebuild from parity (§VII-C).
	return c.diagnoseAndCorrect(a, words[:])
}

// faultyOne returns a single-chip FaultyChips slice backed by controller
// scratch — valid until the next operation on this controller.
func (c *Controller) faultyOne(k int) []int {
	c.flaggedBuf[0] = k
	return c.flaggedBuf[:1]
}

// regenerateCatchWord assigns chip k a fresh random catch-word over MRS
// (§V-D3). No data or ECC rewrite is needed.
func (c *Controller) regenerateCatchWord(k int) {
	next := c.rng.Uint64()
	for next == c.catchWords[k] {
		next = c.rng.Uint64()
	}
	c.catchWords[k] = next
	c.rank.Chip(k).SetCatchWord(next)
	c.stats.CatchWordUpdates++
	c.m.catchWordUpdates.Inc()
}

func toLine(words [DataChips + 1]uint64) Line {
	var l Line
	copy(l[:], words[:DataChips])
	return l
}
