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
	raid3
	extended bool
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
		raid3:    raid3{rank: rank, flagged: pinAsserted, fct: NewFCT(DefaultFCTEntries)},
		extended: extended,
	}
}

// pinAsserted appends to into the chips that pulsed ALERT_n on line: those
// whose on-die engine detected or corrected. The basic pin is the wire-OR
// of every chip's; a direct read of one chip reports its own.
func pinAsserted(line []dram.ReadResult, into []int) []int {
	for i, r := range line {
		if r.Status != ecc.StatusOK {
			into = append(into, i)
		}
	}
	return into
}

// ReadLine reads one line. With the basic pin, an assertion plus a parity
// mismatch forces diagnosis (no location); with the extended pin the
// asserting chip is erased directly like catch-word XED.
func (c *AlertNController) ReadLine(a dram.WordAddr) AlertReadResult {
	words, asserting := c.read(a)
	c.stats.CatchWordsSeen += uint64(len(asserting))
	alert := len(asserting) > 0

	if ecc.CheckParity(words[:DataChips], words[parityChip]) {
		// Either clean, or every erring chip corrected itself on-die.
		c.stats.CleanReads++
		return AlertReadResult{
			ReadResult:    ReadResult{Data: toLine(words), Outcome: OutcomeClean},
			AlertAsserted: alert,
		}
	}

	if c.extended && alert {
		// Location available: the parity mismatch is the asserting
		// chip's. Two asserting chips exceed one parity word, whether or
		// not one of them is the parity chip: the pin cannot tell a chip
		// that corrected from one that detected.
		if len(asserting) > 1 {
			c.stats.DUEs++
			return AlertReadResult{
				ReadResult:    ReadResult{Data: toLine(words), Outcome: OutcomeDUE, FaultyChips: asserting},
				AlertAsserted: true,
			}
		}
		// One asserting chip is erased: a data chip rebuilds from
		// parity, and an erased parity chip leaves the data beats as
		// read.
		bad := asserting[0]
		if bad != parityChip {
			words[bad] = ecc.Reconstruct(words[:DataChips], words[parityChip], bad)
		}
		c.stats.ErasureCorrections++
		return AlertReadResult{
			ReadResult:    ReadResult{Data: toLine(words), Outcome: OutcomeCorrectedErasure, FaultyChips: c.faultyOne(bad)},
			AlertAsserted: true,
		}
	}

	// Basic pin, or a parity mismatch with no assertion (a silent on-die
	// miss): something is wrong but the location is unknown — exactly
	// XED's §VI situation, resolved by the same flow. Its row scan reads
	// each chip's on-die status directly (the per-chip diagnostic mode
	// every controller has), so the §VI-A procedure carries over with the
	// same 10% threshold.
	return AlertReadResult{ReadResult: c.diagnoseAndCorrect(a, nil), AlertAsserted: alert}
}
