package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// The DDR4 ALERT_n alternative (§XI-C): DDR4 provisions an open-drain
// ALERT_n pin that chips assert on errors. Because one pin is shared by
// the whole DIMM, the signal says only that *some* chip erred — not which
// — so RAID-3 reconstruction has no erasure location and must fall back to
// diagnosis. The paper closes by noting that a future standard extending
// ALERT_n to convey the chip's identity would let XED drop catch-words
// entirely; both designs are implemented here so the comparison is
// concrete.

// AlertReadResult augments a line read with the shared-pin state.
type AlertReadResult struct {
	ReadResult
	// AlertAsserted mirrors the DIMM's (single, shared) ALERT_n pin.
	AlertAsserted bool
}

// AlertNController drives a 9-chip ECC-DIMM whose chips keep On-Die ECC
// concealed on the data bus (no DC-Mux) but pulse the shared ALERT_n pin
// on detection or correction. The ninth chip stores RAID-3 parity as in
// XED.
//
// Extended mode models the paper's proposed standard change: the pin also
// conveys *which* chip asserted, making the controller exactly as strong
// as catch-word XED with zero collision risk.
type AlertNController struct {
	rank     *dram.Rank
	extended bool
	fct      *FCT
	stats    Stats
}

// NewAlertNController wraps a 9-chip rank. extended selects the
// location-bearing pin variant.
func NewAlertNController(rank *dram.Rank, extended bool) *AlertNController {
	if rank.Chips() != DataChips+1 {
		panic(fmt.Sprintf("core: ALERT_n controller needs a 9-chip rank, got %d", rank.Chips()))
	}
	// Chips run conventional on-die correction: the data bus always
	// carries (possibly corrected) data, never catch-words.
	rank.SetXEDEnable(false)
	return &AlertNController{
		rank:     rank,
		extended: extended,
		fct:      NewFCT(DefaultFCTEntries),
	}
}

// Rank exposes the underlying rank.
func (c *AlertNController) Rank() *dram.Rank { return c.rank }

// Stats returns a copy of the counters.
func (c *AlertNController) Stats() Stats { return c.stats }

// WriteLine stores data beats plus RAID-3 parity.
func (c *AlertNController) WriteLine(a dram.WordAddr, data Line) {
	c.stats.Writes++
	var beats [DataChips + 1]uint64
	copy(beats[:DataChips], data[:])
	beats[parityChip] = ecc.Parity(data[:])
	c.rank.WriteLine(a, beats[:])
}

// ReadLine reads one line. With the basic pin, an assertion plus a parity
// mismatch forces diagnosis (no location); with the extended pin the
// asserting chips are erased directly like catch-word XED.
func (c *AlertNController) ReadLine(a dram.WordAddr) AlertReadResult {
	c.stats.Reads++
	raw := c.rank.ReadLine(a)

	var words [DataChips + 1]uint64
	var asserting []int
	for i := range words {
		words[i] = raw[i].Data
		// A chip pulses ALERT_n whenever its engine detected or
		// corrected (Status != OK). The wire-OR is what the
		// controller of the basic variant observes.
		if raw[i].Status != ecc.StatusOK {
			asserting = append(asserting, i)
		}
	}
	alert := len(asserting) > 0
	parityOK := ecc.CheckParity(words[:DataChips], words[parityChip])

	if parityOK {
		// Either clean, or every erring chip corrected itself on-die.
		if alert {
			c.stats.CatchWordsSeen += uint64(len(asserting))
		}
		c.stats.CleanReads++
		return AlertReadResult{
			ReadResult:    ReadResult{Data: toLine(words), Outcome: OutcomeClean},
			AlertAsserted: alert,
		}
	}

	if c.extended {
		// Location available: erase the asserting chips. One data
		// chip rebuilds from parity; an asserting parity chip means
		// the data beats are fine.
		dataBad := -1
		multi := false
		for _, i := range asserting {
			if i == parityChip {
				continue
			}
			if dataBad >= 0 {
				multi = true
			}
			dataBad = i
		}
		switch {
		case multi:
			// Two uncorrectable data chips exceed one parity word.
			c.stats.DUEs++
			return AlertReadResult{
				ReadResult:    ReadResult{Data: toLine(words), Outcome: OutcomeDUE, FaultyChips: asserting},
				AlertAsserted: true,
			}
		case dataBad >= 0:
			words[dataBad] = ecc.Reconstruct(words[:DataChips], words[parityChip], dataBad)
			c.stats.ErasureCorrections++
			return AlertReadResult{
				ReadResult: ReadResult{
					Data:        toLine(words),
					Outcome:     OutcomeCorrectedErasure,
					FaultyChips: []int{dataBad},
				},
				AlertAsserted: true,
			}
		}
		// Parity mismatch without an assertion: silent on-die miss;
		// fall through to diagnosis like the basic variant.
	}

	// Basic pin (or extended with no assertion): something is wrong but
	// the location is unknown — exactly XED's §VI situation, resolved
	// the same way.
	res := c.diagnose(a)
	return AlertReadResult{ReadResult: res, AlertAsserted: alert}
}

// diagnose mirrors the XED controller's §VI flow against this rank.
func (c *AlertNController) diagnose(a dram.WordAddr) ReadResult {
	if chip := c.fct.Lookup(a.Bank, a.Row); chip >= 0 {
		return c.reconstruct(a, chip)
	}
	if chip := c.interLine(a); chip >= 0 {
		if c.fct.Insert(a.Bank, a.Row, chip) {
			c.stats.FCTChipMarks++
		}
		return c.reconstruct(a, chip)
	}
	c.stats.IntraLineRuns++
	if chip := intraLinePatternTest(c.rank, a); chip >= 0 {
		if c.fct.Insert(a.Bank, a.Row, chip) {
			c.stats.FCTChipMarks++
		}
		return c.reconstruct(a, chip)
	}
	c.stats.DUEs++
	raw := c.rank.ReadLine(a)
	var words [DataChips + 1]uint64
	for i := range words {
		words[i] = raw[i].Data
	}
	return ReadResult{Data: toLine(words), Outcome: OutcomeDUE}
}

// interLine counts per-chip on-die assertions across the row. Without
// catch-words the basic controller cannot see which chip asserts on a
// shared pin — but it CAN walk the row one chip at a time using per-chip
// reads (the diagnostic mode every controller has), so the §VI-A procedure
// carries over with the same 10% threshold.
func (c *AlertNController) interLine(a dram.WordAddr) int {
	c.stats.InterLineRuns++
	geom := c.rank.Geometry()
	var counts [DataChips + 1]int
	for col := 0; col < geom.ColsPerRow; col++ {
		addr := dram.WordAddr{Bank: a.Bank, Row: a.Row, Col: col}
		for i := 0; i <= DataChips; i++ {
			if _, st := c.rank.Chip(i).ReadRaw(addr); st != ecc.StatusOK {
				counts[i]++
			}
		}
	}
	return convictRowChip(&counts, geom.ColsPerRow)
}

// reconstruct rebuilds line a against convicted chip k.
func (c *AlertNController) reconstruct(a dram.WordAddr, k int) ReadResult {
	c.stats.DiagCorrections++
	return ReadResult{Data: reconstructLine(c.rank, a, k), Outcome: OutcomeCorrectedDiagnosis, FaultyChips: []int{k}}
}
