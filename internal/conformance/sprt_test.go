package conformance

import (
	"math"
	"testing"

	"xedsim/internal/simrand"
)

// TestRatioSPRTDirections drives the test with synthetic failure streams
// on both sides of the claim boundary: a true 20x margin must accept a
// 10x claim, and equal failure rates must reject it.
func TestRatioSPRTDirections(t *testing.T) {
	cases := []struct {
		name   string
		qTrue  float64 // P(failure is an A-failure)
		want   Decision
		maxObs int
	}{
		// pB = 20*pA => q = 1/21; claim ratio 10 holds with margin.
		{"true margin accepts", 1.0 / 21, AcceptClaim, 1_000_000},
		// pA = pB => q = 1/2; claim ratio 10 is badly false.
		{"equal rates reject", 0.5, RejectClaim, 1_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sprt := NewRatioSPRT(10, 2, 1e-9, 1e-9)
			rng := simrand.New(7)
			for i := 0; i < tc.maxObs && sprt.Decision() == Undecided; i++ {
				if rng.Float64() < tc.qTrue {
					sprt.Observe(1, 0)
				} else {
					sprt.Observe(0, 1)
				}
			}
			if got := sprt.Decision(); got != tc.want {
				kA, kB := sprt.kA, sprt.kB
				t.Fatalf("decision %v after %d/%d observations, want %v (LLR %v)",
					got, kA, kB, tc.want, sprt.LLR())
			}
		})
	}
}

// TestRatioSPRTTerminationSticks: once a boundary is crossed, further
// observations must not move the decision or the counts — the recorded
// decision is the sequential one.
func TestRatioSPRTTerminationSticks(t *testing.T) {
	sprt := NewRatioSPRT(10, 2, 1e-3, 1e-3)
	for i := 0; i < 10_000 && sprt.Decision() == Undecided; i++ {
		sprt.Observe(0, 1)
	}
	if sprt.Decision() != AcceptClaim {
		t.Fatalf("all-B stream did not accept: %v", sprt.Decision())
	}
	llr := sprt.LLR()
	kA, kB := sprt.kA, sprt.kB
	sprt.Observe(1_000_000, 0) // would reject if it counted
	if sprt.Decision() != AcceptClaim || sprt.LLR() != llr {
		t.Fatal("post-termination observation changed the test")
	}
	if sprt.kA != kA || sprt.kB != kB {
		t.Fatal("post-termination observation changed the counts")
	}
}

// TestRatioSPRTBatchEquivalence: feeding counts in one batch or one by one
// reaches the same LLR while undecided (the statistic is a sum).
func TestRatioSPRTBatchEquivalence(t *testing.T) {
	one := NewRatioSPRT(5, 3, 1e-6, 1e-6)
	batch := NewRatioSPRT(5, 3, 1e-6, 1e-6)
	for i := 0; i < 3; i++ {
		one.Observe(1, 0)
	}
	for i := 0; i < 7; i++ {
		one.Observe(0, 1)
	}
	batch.Observe(3, 7)
	if one.Decision() != Undecided || batch.Decision() != Undecided {
		t.Fatalf("test terminated unexpectedly: %v / %v", one.Decision(), batch.Decision())
	}
	if math.Abs(one.LLR()-batch.LLR()) > 1e-9 {
		t.Fatalf("LLR diverged: %v vs %v", one.LLR(), batch.LLR())
	}
}

// TestNewRatioSPRTPanicsOnInvalid pins the static-claim-table contract:
// malformed parameters are programming errors.
func TestNewRatioSPRTPanicsOnInvalid(t *testing.T) {
	bad := [][4]float64{
		{0, 2, 1e-9, 1e-9},   // ratio <= 0
		{-1, 2, 1e-9, 1e-9},  // negative ratio
		{10, 1, 1e-9, 1e-9},  // separation <= 1
		{10, 2, 0, 1e-9},     // alpha <= 0
		{10, 2, 1, 1e-9},     // alpha >= 1
		{10, 2, 1e-9, 0},     // beta <= 0
		{10, 2, 1e-9, 1.001}, // beta >= 1
	}
	for _, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRatioSPRT(%v, %v, %v, %v) did not panic", p[0], p[1], p[2], p[3])
				}
			}()
			NewRatioSPRT(p[0], p[1], p[2], p[3])
		}()
	}
}

// TestWilsonSeparation checks the three regions of the fallback test.
func TestWilsonSeparation(t *testing.T) {
	// 10 vs 10_000 failures in 1M trials: clear 10x separation.
	confirmed, refuted := wilsonSeparation(10, 1_000_000, 10_000, 1_000_000, 10)
	if !confirmed || refuted {
		t.Fatalf("clear separation: confirmed=%v refuted=%v", confirmed, refuted)
	}
	// Equal counts: claiming 10x must be refuted.
	confirmed, refuted = wilsonSeparation(10_000, 1_000_000, 10_000, 1_000_000, 10)
	if confirmed || !refuted {
		t.Fatalf("equal counts: confirmed=%v refuted=%v", confirmed, refuted)
	}
	// Sparse counts straddling the boundary: neither.
	confirmed, refuted = wilsonSeparation(2, 10_000, 25, 10_000, 10)
	if confirmed || refuted {
		t.Fatalf("straddling: confirmed=%v refuted=%v", confirmed, refuted)
	}
}
