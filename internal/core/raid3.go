package core

import (
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// raid3 is the 9-chip RAID-3 datapath the XED and ALERT_n controllers
// share: chips 0..7 carry a line's data beats and chip 8 their XOR parity
// (Equation 1). It reads a line together with the chips seen flagging it,
// runs the §VI diagnosis flow when parity fails and no single chip is
// named (diagnosis.go), and rebuilds a line against the chip it convicts.
type raid3 struct {
	rank *dram.Rank
	// flagged appends to into the chips the controller sees flag line,
	// one read result per chip, on a demand read and on each line of a
	// row scan. XED compares each bus word with the chip's catch-word;
	// ALERT_n reads each chip's on-die status (see pinAsserted).
	flagged func(line []dram.ReadResult, into []int) []int
	fct     *FCT
	stats   Stats

	// Read-path scratch, reused across calls so steady-state reads do not
	// allocate. ReadResult.FaultyChips aliases flaggedBuf.
	readBuf    []dram.ReadResult
	flaggedBuf [DataChips + 1]int
}

// Rank exposes the underlying rank (fault injection in tests/examples).
func (p *raid3) Rank() *dram.Rank { return p.rank }

// Stats returns a copy of the activity counters.
func (p *raid3) Stats() Stats { return p.stats }

// WriteLine stores a cache line: the eight data beats go to chips 0..7 and
// their XOR parity to chip 8 (Equation 1).
func (p *raid3) WriteLine(a dram.WordAddr, data Line) {
	p.stats.Writes++
	var beats [DataChips + 1]uint64
	copy(beats[:DataChips], data[:])
	beats[parityChip] = ecc.Parity(data[:])
	p.rank.WriteLine(a, beats[:])
}

// read is one demand read of line a: it counts the read and returns the
// nine bus words with the chips that flagged them, in a slice backed by
// controller scratch.
func (p *raid3) read(a dram.WordAddr) (words [DataChips + 1]uint64, flagged []int) {
	p.stats.Reads++
	words = p.busWords(a)
	return words, p.flagged(p.readBuf, p.flaggedBuf[:0])
}

// busWords reads line a's nine bus words, leaving each chip's result in
// readBuf.
func (p *raid3) busWords(a dram.WordAddr) (words [DataChips + 1]uint64) {
	p.readBuf = p.rank.ReadLineInto(a, p.readBuf)
	for i, r := range p.readBuf {
		words[i] = r.Data
	}
	return words
}

// faultyOne returns a single-chip FaultyChips slice backed by controller
// scratch — valid until the next operation on this controller.
func (p *raid3) faultyOne(k int) []int {
	p.flaggedBuf[0] = k
	return p.flaggedBuf[:1]
}

func toLine(words [DataChips + 1]uint64) Line {
	var l Line
	copy(l[:], words[:DataChips])
	return l
}
