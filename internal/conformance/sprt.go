// Package conformance encodes the XED paper's qualitative results as
// machine-checkable claims with bounded verification cost. Three claim
// families cover the reproduction:
//
//   - Statistical ordering claims ("XED on a 9-chip DIMM fails at least
//     10x less often than SECDED", Figures 1/7/8/9/10) driven by a
//     sequential probability-ratio test over Monte-Carlo campaign batches,
//     so a clean tree confirms each claim after only as many trials as its
//     margin needs instead of a fixed worst-case count.
//   - Exhaustive code claims (the §V-E SECDED detection guarantees, the
//     §V-C RAID-3/Reed-Solomon erasure agreement, the Table I FIT inputs)
//     checked over their full — small — input spaces.
//   - Differential claims: randomized cross-checks of the pre-indexed
//     Monte-Carlo Evaluator against the reference probe, and of the three
//     SECDED codecs against each other, over generated configurations.
//
// cmd/xedverify runs the full table; the package tests additionally
// demonstrate that a deliberately sabotaged evaluator is refuted.
package conformance

import (
	"fmt"
	"math"

	"xedsim/internal/faultsim"
)

// Decision is the state of a sequential test.
type Decision int

const (
	// Undecided: neither boundary crossed; keep sampling.
	Undecided Decision = iota
	// AcceptClaim: the data crossed the upper boundary; H1 (the claim)
	// is accepted at the configured error rates.
	AcceptClaim
	// RejectClaim: the data crossed the lower boundary; H0 (the claim's
	// negation) is accepted.
	RejectClaim
)

// RatioSPRT is Wald's sequential probability-ratio test specialised to
// scheme-ordering claims of the form "scheme A's failure probability pA is
// at least `ratio` times smaller than scheme B's pB".
//
// Conditional on a failure occurring under either scheme, it is an
// A-failure with probability q = pA/(pA+pB) (the marginal failure counts
// of a shared-stream campaign have exactly these expectations). The claim
// boundary pB = ratio*pA becomes q0 = 1/(1+ratio); the design alternative
// is q1 = 1/(1+ratio*separation), i.e. the claim holding with `separation`
// to spare. Observations are failure-attribution events: each A-failure
// moves the log-likelihood ratio by log(q1/q0) (towards rejection), each
// B-failure by log((1-q1)/(1-q0)) (towards acceptance). Crossing
// log((1-beta)/alpha) accepts the claim; crossing log(beta/(1-alpha))
// rejects it.
//
// Caveat: trials share fault streams, so A- and B-failure counts are
// positively correlated (a trial that defeats the stronger scheme usually
// defeats the weaker one too) and the nominal alpha/beta are approximate.
// The claim table compensates by demanding margins far inside the measured
// ratios and running at alpha = beta = 1e-9; the campaign-level Wilson
// intervals (see wilsonSeparation) provide an independent cross-check.
type RatioSPRT struct {
	ratio      float64
	q0, q1     float64
	upper      float64 // accept H1 (claim) at llr >= upper
	lower      float64 // accept H0 (refute) at llr <= lower
	stepA      float64 // llr increment per A-failure
	stepB      float64 // llr increment per B-failure
	llr        float64
	kA, kB     uint64
	terminated Decision
}

// NewRatioSPRT builds the sequential test for "pA*ratio <= pB".
// separation (> 1) places the design alternative at pB = ratio*separation*pA;
// larger values decide faster but demand a larger true margin. alpha bounds
// the probability of confirming a false claim, beta of refuting a true one.
// Invalid parameters panic: the claim table is static and a malformed test
// is a programming error, not a data condition.
func NewRatioSPRT(ratio, separation, alpha, beta float64) *RatioSPRT {
	if ratio <= 0 || separation <= 1 || alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		panic(fmt.Sprintf("conformance: invalid SPRT parameters ratio=%v separation=%v alpha=%v beta=%v",
			ratio, separation, alpha, beta))
	}
	q0 := 1 / (1 + ratio)
	q1 := 1 / (1 + ratio*separation)
	return &RatioSPRT{
		ratio: ratio,
		q0:    q0,
		q1:    q1,
		upper: math.Log((1 - beta) / alpha),
		lower: math.Log(beta / (1 - alpha)),
		stepA: math.Log(q1 / q0),
		stepB: math.Log((1 - q1) / (1 - q0)),
	}
}

// Observe folds one campaign batch's failure counts into the test: kA
// failures of the claimed-better scheme, kB of the claimed-worse one.
// Once a boundary has been crossed further observations are ignored, so
// the recorded decision is the sequential one.
func (s *RatioSPRT) Observe(kA, kB uint64) {
	if s.terminated != Undecided {
		return
	}
	s.kA += kA
	s.kB += kB
	s.llr += float64(kA)*s.stepA + float64(kB)*s.stepB
	switch {
	case s.llr >= s.upper:
		s.terminated = AcceptClaim
	case s.llr <= s.lower:
		s.terminated = RejectClaim
	}
}

// Decision returns the test's current state.
func (s *RatioSPRT) Decision() Decision { return s.terminated }

// LLR returns the accumulated log-likelihood ratio (positive favours the
// claim).
func (s *RatioSPRT) LLR() float64 { return s.llr }

// wilsonSeparation cross-checks an ordering claim with simultaneous 95%
// Wilson intervals: the claim is `confirmed` when even the pessimistic
// corner satisfies it (upper bound of pA, scaled by ratio, below the lower
// bound of pB) and `refuted` when even the optimistic corner violates it.
// Both false means the intervals still straddle the ratio boundary.
func wilsonSeparation(kA, nA, kB, nB uint64, ratio float64) (confirmed, refuted bool) {
	loA, hiA := faultsim.WilsonInterval(kA, nA)
	loB, hiB := faultsim.WilsonInterval(kB, nB)
	confirmed = hiA*ratio < loB
	refuted = loA*ratio > hiB
	return confirmed, refuted
}
