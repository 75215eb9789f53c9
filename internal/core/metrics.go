package core

import "xedsim/internal/obs"

// AddMetrics adds the fleet's activity to r's counters under "core.*"
// names: every TotalStats counter and, once a ScrubAll pass has run, the
// patrol-scrub totals under "core.scrub.*". It adds rather than sets, so
// call it once, when the run is done. A nil registry discards everything.
func (m *MemorySystem) AddMetrics(r *obs.Registry) {
	s := m.TotalStats()
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"core.reads", s.Reads},
		{"core.writes", s.Writes},
		{"core.reads_clean", s.CleanReads},
		{"core.catchwords_seen", s.CatchWordsSeen},
		{"core.corrections_erasure", s.ErasureCorrections},
		{"core.corrections_serial", s.SerialCorrections},
		{"core.corrections_diagnosis", s.DiagCorrections},
		{"core.dues", s.DUEs},
		{"core.collisions", s.Collisions},
		{"core.catchword_updates", s.CatchWordUpdates},
		{"core.diag_interline_runs", s.InterLineRuns},
		{"core.diag_intraline_runs", s.IntraLineRuns},
		{"core.fct_chip_marks", s.FCTChipMarks},
	} {
		r.Counter(c.name).Add(c.n)
	}
	if sc := m.scrubbed; sc.passes > 0 {
		r.Counter("core.scrub.lines").Add(sc.lines)
		r.Counter("core.scrub.corrections").Add(sc.corrections)
		r.Counter("core.scrub.dues").Add(sc.dues)
		r.Counter("core.scrub.passes").Add(sc.passes)
	}
}
