package core

import (
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// Fault diagnosis for the cases where On-Die ECC fails to detect a
// multi-bit chip error (§VI). The DIMM-level parity still exposes that
// *something* is wrong, but not *which* chip; these routines identify the
// chip so RAID-3 reconstruction can proceed instead of declaring an
// uncorrectable error. They run on raid3, so the ALERT_n controller, whose
// shared pin never names the chip, resolves its parity mismatches the
// same way.

// diagnoseAndCorrect drives the §VI flow: FCT lookup, then Inter-Line
// Fault Diagnosis, then Intra-Line Fault Diagnosis; on success the faulty
// chip's beat is rebuilt from parity, otherwise the read is a DUE.
// hintWords, when non-nil, carries the serial-mode (on-die corrected) bus
// words already collected for this line; a DUE returns them, or a fresh
// read of the line without them.
func (p *raid3) diagnoseAndCorrect(a dram.WordAddr, hintWords []uint64) ReadResult {
	// Fast path: a previous diagnosis already convicted a chip for this
	// row (or permanently, after FCT saturation).
	if chip := p.fct.Lookup(a.Bank, a.Row); chip >= 0 {
		return p.reconstructAgainstChip(a, chip)
	}
	chip := p.interLineDiagnosis(a)
	if chip < 0 {
		// Intra-line verdicts feed the FCT too: a column or bank
		// failure is convicted row by row, and once every entry names
		// the same chip it is permanently marked (§VI-A).
		chip = p.intraLineDiagnosis(a)
	}
	if chip >= 0 {
		if p.fct.Insert(a.Bank, a.Row, chip) {
			p.stats.FCTChipMarks++
		}
		return p.reconstructAgainstChip(a, chip)
	}
	// Both diagnoses failed (the transient-word-fault case of §VIII):
	// detected but uncorrectable.
	p.stats.DUEs++
	var words [DataChips + 1]uint64
	if hintWords != nil {
		copy(words[:], hintWords)
	} else {
		words = p.busWords(a)
	}
	return ReadResult{Data: toLine(words), Outcome: OutcomeDUE}
}

// interLineDiagnosis streams the entire row buffer (all columns of the
// accessed row) and counts, per chip, how many lines the chip flagged. A
// chip whose count reaches the threshold (10% of the row, §VI-A) is
// convicted — a row/column/bank failure damages many spatially close
// lines, and the on-die code cannot miss all of them. Returns the faulty
// chip or -1.
func (p *raid3) interLineDiagnosis(a dram.WordAddr) int {
	p.stats.InterLineRuns++
	geom := p.rank.Geometry()
	var counts [DataChips + 1]int
	for col := 0; col < geom.ColsPerRow; col++ {
		p.busWords(dram.WordAddr{Bank: a.Bank, Row: a.Row, Col: col})
		// The scan may reuse flaggedBuf: this read's FaultyChips are
		// written after it.
		for _, i := range p.flagged(p.readBuf, p.flaggedBuf[:0]) {
			counts[i]++
		}
	}
	return convictRowChip(&counts, geom.ColsPerRow)
}

// interLineThreshold is the fraction of a row's lines that must be flagged
// by one chip to convict it (§VI-A).
const interLineThreshold = 0.10

// convictRowChip is the §VI-A conviction rule over per-chip counts of
// flagged lines in a row of cols lines: a chip is convicted if it alone
// reaches interLineThreshold of the row (at least one line). Two chips at
// the threshold convict neither: two dead chips each flag nearly every
// line, and convicting the one that flagged a line more would rebuild the
// line from the other's garbage. Returns the chip or -1.
func convictRowChip(counts *[DataChips + 1]int, cols int) int {
	threshold := max(int(interLineThreshold*float64(cols)), 1)
	convict := -1
	for i, n := range counts {
		if n < threshold {
			continue
		}
		if convict >= 0 {
			return -1
		}
		convict = i
	}
	return convict
}

// intraLineDiagnosis is the §VI-B test for a permanent fault confined to
// the accessed line: it buffers the line, writes all-zeros and all-ones
// patterns, reads them back with XED bypassed, and convicts the chip whose
// cells do not hold the pattern. Transient word faults do not reproduce
// under rewrite and correctly escape conviction. The original (buffered)
// content is restored before returning. Returns the faulty chip or -1.
func (p *raid3) intraLineDiagnosis(a dram.WordAddr) int {
	p.stats.IntraLineRuns++
	rank := p.rank
	// Buffer the suspect line as raw (on-die corrected where possible)
	// words.
	var buffer [DataChips + 1]uint64
	for i := 0; i <= DataChips; i++ {
		buffer[i], _ = rank.Chip(i).ReadRaw(a)
	}

	faulty := -1
	ambiguous := false
	for _, pattern := range []uint64{0, ^uint64(0)} {
		for i := 0; i <= DataChips; i++ {
			rank.Chip(i).Write(a, pattern)
		}
		for i := 0; i <= DataChips; i++ {
			got, st := rank.Chip(i).ReadRaw(a)
			if got == pattern && st != ecc.StatusDetected {
				continue
			}
			if faulty >= 0 && faulty != i {
				ambiguous = true
			}
			faulty = i
		}
	}

	// Restore the buffered content.
	for i := 0; i <= DataChips; i++ {
		rank.Chip(i).Write(a, buffer[i])
	}
	if ambiguous {
		return -1
	}
	return faulty
}

// reconstructAgainstChip rebuilds line a treating convicted chip k as an
// erasure: every other chip is read with XED bypassed (their on-die
// engines repair any correctable scaling faults), then chip k's beat is
// recomputed from parity (§VI, §VII-C).
func (p *raid3) reconstructAgainstChip(a dram.WordAddr, k int) ReadResult {
	p.stats.DiagCorrections++
	var words [DataChips + 1]uint64
	for i := 0; i <= DataChips; i++ {
		if i == k {
			continue
		}
		words[i], _ = p.rank.Chip(i).ReadRaw(a)
	}
	if k != parityChip {
		words[k] = ecc.Reconstruct(words[:DataChips], words[parityChip], k)
	}
	return ReadResult{Data: toLine(words), Outcome: OutcomeCorrectedDiagnosis, FaultyChips: p.faultyOne(k)}
}
