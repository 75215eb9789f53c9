package core

import "xedsim/internal/obs"

// Metric plumbing for the functional model. A Controller built with
// WithMetrics mirrors its Stats counters into an obs.Registry with atomic
// adds; without it every handle below is nil and each update is a nil-check
// no-op, so the read hot path carries no enablement branches and stays
// allocation-free either way (pinned by alloc_test.go). Handles are
// pre-resolved once at construction so instrumented paths never touch the
// registry's lock; controllers sharing a registry (a MemorySystem fleet)
// share the counters, which is exactly the fleet-total view TotalStats
// computes from Stats.
type controllerMetrics struct {
	reads              *obs.Counter
	writes             *obs.Counter
	cleanReads         *obs.Counter
	catchWordsSeen     *obs.Counter
	erasureCorrections *obs.Counter
	serialCorrections  *obs.Counter
	diagCorrections    *obs.Counter
	dues               *obs.Counter
	collisions         *obs.Counter
	catchWordUpdates   *obs.Counter
	interLineRuns      *obs.Counter
	intraLineRuns      *obs.Counter
	fctChipMarks       *obs.Counter
}

func newControllerMetrics(r *obs.Registry) controllerMetrics {
	return controllerMetrics{
		reads:              r.Counter("core.reads"),
		writes:             r.Counter("core.writes"),
		cleanReads:         r.Counter("core.reads_clean"),
		catchWordsSeen:     r.Counter("core.catchwords_seen"),
		erasureCorrections: r.Counter("core.corrections_erasure"),
		serialCorrections:  r.Counter("core.corrections_serial"),
		diagCorrections:    r.Counter("core.corrections_diagnosis"),
		dues:               r.Counter("core.dues"),
		collisions:         r.Counter("core.collisions"),
		catchWordUpdates:   r.Counter("core.catchword_updates"),
		interLineRuns:      r.Counter("core.diag_interline_runs"),
		intraLineRuns:      r.Counter("core.diag_intraline_runs"),
		fctChipMarks:       r.Counter("core.fct_chip_marks"),
	}
}

// scrubMetrics counts a controller's patrol scrub passes (see scrub.go) in
// its registry.
type scrubMetrics struct {
	lines       *obs.Counter
	corrections *obs.Counter
	dues        *obs.Counter
	passes      *obs.Counter
}

func newScrubMetrics(r *obs.Registry) scrubMetrics {
	return scrubMetrics{
		lines:       r.Counter("core.scrub.lines"),
		corrections: r.Counter("core.scrub.corrections"),
		dues:        r.Counter("core.scrub.dues"),
		passes:      r.Counter("core.scrub.passes"),
	}
}
