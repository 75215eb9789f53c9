package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// TestScrubberDUELineNotWrittenBack: an uncorrectable line is counted but
// must not be written back — a rewrite would heal the (transient) fault in
// the functional model and launder undetected-bad data into clean state.
func TestScrubberDUELineNotWrittenBack(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl := newXED(t, WithMetrics(reg))
	rng := simrand.New(91)
	a := dram.WordAddr{Bank: 2, Row: 3, Col: 4}
	ctrl.WriteLine(a, lineOf(rng))
	// Silent word fault: the error pattern is a valid CRC8 codeword, so
	// on-die detection misses it and the read is uncorrectable. Transient,
	// so any write-back would heal it.
	ctrl.Rank().Chip(1).InjectFault(silentWordFault(a, true))

	if dues := ctrl.scrub(); dues != 1 {
		t.Fatalf("scrub DUEs = %d, want 1", dues)
	}
	if d, c := reg.Counter("core.scrub.dues").Load(), reg.Counter("core.scrub.corrections").Load(); d != 1 || c != 0 {
		t.Fatalf("core.scrub.dues = %d, core.scrub.corrections = %d", d, c)
	}
	// No write-back happened: the transient fault is still live, so a
	// second read still reports DUE instead of laundered-clean data.
	if res := ctrl.ReadLine(a); res.Outcome != OutcomeDUE {
		t.Fatalf("post-scrub read outcome = %v; DUE line was written back", res.Outcome)
	}
}
