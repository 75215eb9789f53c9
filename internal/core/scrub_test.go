package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

// TestScrubberDUELineNotWrittenBack: an uncorrectable line is counted but
// must not be written back — a rewrite would heal the (transient) fault in
// the functional model and launder undetected-bad data into clean state.
func TestScrubberDUELineNotWrittenBack(t *testing.T) {
	ctrl := newXED(t)
	rng := simrand.New(91)
	a := dram.WordAddr{Bank: 2, Row: 3, Col: 4}
	ctrl.WriteLine(a, lineOf(rng))
	// Silent word fault: the error pattern is a valid CRC8 codeword, so
	// on-die detection misses it and the read is uncorrectable. Transient,
	// so any write-back would heal it.
	ctrl.Rank().Chip(1).InjectFault(silentWordFault(a, true))

	if n := ctrl.scrub(); n.dues != 1 || n.corrections != 0 {
		t.Fatalf("scrub dues = %d, corrections = %d; want 1 and 0", n.dues, n.corrections)
	}
	// No write-back happened: the transient fault is still live, so a
	// second read still reports DUE instead of laundered-clean data.
	if res := ctrl.ReadLine(a); res.Outcome != OutcomeDUE {
		t.Fatalf("post-scrub read outcome = %v; DUE line was written back", res.Outcome)
	}
}
