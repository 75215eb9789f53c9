package core

import "xedsim/internal/dram"

// Patrol scrubbing: the background process that walks memory, reads every
// line through the correction hierarchy, and writes the corrected data
// back. Scrubbing bounds how long a transient fault stays live — the
// overlap window of the reliability model (faultsim's ScrubIntervalHours)
// — and rewrites heal transient upsets in the functional model exactly as
// redundant-bit rewrites do in real DRAM.

// scrubCounts tallies patrol scrub work: lines read, lines corrected and
// written back, uncorrectable lines left in place, and controller passes.
type scrubCounts struct {
	lines, corrections, dues, passes uint64
}

func (s *scrubCounts) add(o scrubCounts) {
	s.lines += o.lines
	s.corrections += o.corrections
	s.dues += o.dues
	s.passes += o.passes
}

// scrub runs one patrol pass over the controller's rank in address order
// and returns its counts. A corrected line is written back; an
// uncorrectable one is left for the OS to retire rather than laundering
// bad data.
func (c *Controller) scrub() scrubCounts {
	geom := c.rank.Geometry()
	n := scrubCounts{passes: 1}
	for bank := 0; bank < geom.Banks; bank++ {
		for row := 0; row < geom.RowsPerBank; row++ {
			for col := 0; col < geom.ColsPerRow; col++ {
				a := dram.WordAddr{Bank: bank, Row: row, Col: col}
				switch res := c.ReadLine(a); res.Outcome {
				case OutcomeDUE:
					n.dues++
				case OutcomeClean:
					// Nothing to heal; skip the write-back.
				default:
					n.corrections++
					c.WriteLine(a, res.Data)
				}
				n.lines++
			}
		}
	}
	return n
}
