package core

import "xedsim/internal/dram"

// Patrol scrubbing: the background process that walks memory, reads every
// line through the correction hierarchy, and writes the corrected data
// back. Scrubbing bounds how long a transient fault stays live — the
// overlap window of the reliability model (faultsim's ScrubIntervalHours)
// — and rewrites heal transient upsets in the functional model exactly as
// redundant-bit rewrites do in real DRAM.

// scrub runs one patrol pass over the controller's rank in address order
// and returns the number of uncorrectable lines hit. A corrected line is
// written back; an uncorrectable one is left for the OS to retire rather
// than laundering bad data. The pass is mirrored into the "core.scrub.*"
// counters of the controller's registry, if any.
func (c *Controller) scrub() int {
	m := newScrubMetrics(c.obsReg)
	geom := c.rank.Geometry()
	dues := 0
	for bank := 0; bank < geom.Banks; bank++ {
		for row := 0; row < geom.RowsPerBank; row++ {
			for col := 0; col < geom.ColsPerRow; col++ {
				a := dram.WordAddr{Bank: bank, Row: row, Col: col}
				switch res := c.ReadLine(a); res.Outcome {
				case OutcomeDUE:
					m.dues.Inc()
					dues++
				case OutcomeClean:
					// Nothing to heal; skip the write-back.
				default:
					m.corrections.Inc()
					c.WriteLine(a, res.Data)
				}
				m.lines.Inc()
			}
		}
	}
	m.passes.Inc()
	return dues
}
