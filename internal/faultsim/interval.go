package faultsim

import "math"

// WilsonInterval returns the 95% Wilson score interval for a binomial
// proportion with k successes in n trials. Unlike the normal (Wald)
// interval it stays inside [0, 1] and behaves sensibly at the extremes —
// exactly the regime of a young Monte-Carlo campaign, where a scheme has a
// handful of failures out of millions of trials and a live progress line
// still wants honest error bars. n = 0 returns the vacuous (0, 1).
func WilsonInterval(k, n uint64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.9599639845400545 // Phi^-1(0.975)
	nf := float64(n)
	p := float64(k) / nf
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := float64(z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
