// Package analysis provides the closed-form models behind the paper's
// non-Monte-Carlo numbers: the catch-word collision interval (Figure 6 and
// §IX-A), the likelihood of receiving multiple catch-words per access
// (Table III), and the SDC/DUE rates of XED (Table IV). Each model is
// cross-checked against small-scale Monte Carlo in the tests.
package analysis

import "math"

// CollisionModel computes how often legitimately written data matches a
// chip's randomly chosen catch-word (§V-D2). Writes are conservatively
// assumed to carry a fresh uniformly random value each time, so each write
// collides with probability 2^-bits.
type CollisionModel struct {
	// CatchWordBits is the catch-word width: 64 for x8 devices, 32 for
	// the x4 devices of the Chipkill configuration (§IX-A).
	CatchWordBits int
	// WriteIntervalSec is the mean time between writes reaching one
	// chip. The paper's headline assumption is "a memory write every
	// 4ns" (4e-9).
	WriteIntervalSec float64
}

// SecondsPerYear uses the Julian year.
const SecondsPerYear = 365.25 * 24 * 3600

// PerWriteProbability is the chance one write collides: 2^-bits.
func (m CollisionModel) PerWriteProbability() float64 {
	return math.Exp2(-float64(m.CatchWordBits))
}

// MeanTimeBetweenCollisionsYears is the expected collision interval.
// With 64-bit catch-words and a write every 4ns this is ~2.3 thousand
// years per write stream; the paper quotes 3.2 million years for an x8
// chip (its per-chip write rate is correspondingly lower). EXPERIMENTS.md
// tabulates both conventions.
func (m CollisionModel) MeanTimeBetweenCollisionsYears() float64 {
	return m.WriteIntervalSec / m.PerWriteProbability() / SecondsPerYear
}

// ProbabilityByYears returns P(at least one collision within y years):
// 1 - (1-p)^n over n = y·writes-per-year — the curve of Figure 6.
// Computed in log space to stay stable for p = 2^-64.
func (m CollisionModel) ProbabilityByYears(y float64) float64 {
	writes := y * SecondsPerYear / m.WriteIntervalSec
	p := m.PerWriteProbability()
	// log(1-p) ≈ -p for tiny p; math.Log1p handles both regimes.
	return -math.Expm1(writes * math.Log1p(-p))
}

// Curve evaluates ProbabilityByYears at each supplied year mark.
func (m CollisionModel) Curve(years []float64) []float64 {
	out := make([]float64, len(years))
	for i, y := range years {
		out[i] = m.ProbabilityByYears(y)
	}
	return out
}

// X8Default is Figure 6's configuration: 64-bit catch-word, 4ns writes.
func X8Default() CollisionModel {
	return CollisionModel{CatchWordBits: 64, WriteIntervalSec: 4e-9}
}

// X4Default is §IX-A's configuration: 32-bit catch-word (x4 devices). The
// paper computes ~6.6 hours between collisions for this width.
func X4Default() CollisionModel {
	return CollisionModel{CatchWordBits: 32, WriteIntervalSec: 4e-9}
}

// PaperCalibratedX8 reproduces the paper's quoted 3.2-million-year figure:
// solving 2^64·Δ = 3.2e6 years gives a per-chip write interval of ~5.5µs,
// i.e. the 4ns system-level write stream fanned out across the fleet's
// ranks, banks and channels. We expose it so the Figure 6 bench can print
// both conventions side by side.
func PaperCalibratedX8() CollisionModel {
	const paperYears = 3.2e6
	return CollisionModel{
		CatchWordBits:    64,
		WriteIntervalSec: paperYears * SecondsPerYear * math.Exp2(-64),
	}
}
