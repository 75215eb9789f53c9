package faultsim

import (
	"fmt"
	"math"
)

// Lifetime-dependent fault rates. The field data behind Table I is a
// time-average, but real DRAM populations show a bathtub: elevated infant
// mortality that burns in over the first months, a flat useful-life floor,
// and wear-out growth toward end of life. The paper's conclusion motivates
// exactly this regime ("as DRAM technology ventures into sub-20nm...");
// this extension lets the simulator ask how XED's margins hold up when the
// flat-rate assumption is dropped.
//
// The generator samples arrival times by thinning: candidates are drawn at
// the envelope rate (peak multiplier) and accepted with probability
// m(t)/mPeak, which is exact for any bounded rate profile.

// AgingProfile is a bathtub-shaped FIT multiplier over the lifetime.
type AgingProfile struct {
	// InfantFactor scales the fault rate at t=0; it decays linearly to
	// 1 over BurnInFraction of the lifetime. 1 disables the infant leg.
	InfantFactor   float64
	BurnInFraction float64
	// WearoutFactor is the rate multiplier reached at end of life; the
	// wear-out leg grows linearly from WearoutOnset (fraction of
	// lifetime) onward. 1 disables it.
	WearoutFactor float64
	WearoutOnset  float64
}

// FlatAging is the paper's constant-rate assumption.
func FlatAging() AgingProfile { return AgingProfile{InfantFactor: 1, WearoutFactor: 1} }

// BathtubAging is a representative profile: 5x infant mortality burning in
// over the first 5% of life, and 3x wear-out growth over the final 30%.
func BathtubAging() AgingProfile {
	return AgingProfile{InfantFactor: 5, BurnInFraction: 0.05, WearoutFactor: 3, WearoutOnset: 0.7}
}

// validate rejects profiles the thinning sampler cannot handle: NaN or
// negative factors, and burn-in/onset fractions outside [0,1]. The zero
// value (flat) is valid.
func (a AgingProfile) validate() error {
	for _, v := range [...]float64{a.InfantFactor, a.BurnInFraction, a.WearoutFactor, a.WearoutOnset} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("faultsim: invalid aging profile %+v", a)
		}
	}
	if a.BurnInFraction > 1 || a.WearoutOnset > 1 {
		return fmt.Errorf("faultsim: aging profile fractions must lie in [0,1]: %+v", a)
	}
	return nil
}

// enabled reports whether the profile deviates from flat.
func (a AgingProfile) enabled() bool {
	return (a.InfantFactor > 1 && a.BurnInFraction > 0) || a.WearoutFactor > 1
}

// Multiplier evaluates m(t) at lifetime fraction x in [0,1].
func (a AgingProfile) Multiplier(x float64) float64 {
	m := 1.0
	if a.InfantFactor > 1 && a.BurnInFraction > 0 && x < a.BurnInFraction {
		m += float64((a.InfantFactor - 1) * (1 - x/a.BurnInFraction))
	}
	if a.WearoutFactor > 1 && x > a.WearoutOnset && a.WearoutOnset < 1 {
		m += (a.WearoutFactor - 1) * (x - a.WearoutOnset) / (1 - a.WearoutOnset)
	}
	return m
}

// Peak returns the envelope max of Multiplier on [0,1].
func (a AgingProfile) Peak() float64 {
	peak := 1.0
	if v := a.Multiplier(0); v > peak {
		peak = v
	}
	if v := a.Multiplier(1); v > peak {
		peak = v
	}
	return peak
}
