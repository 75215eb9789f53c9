// Package simrand provides a small, fast, deterministic random number
// generator for the simulators in this module.
//
// Reliability results must be reproducible run-to-run (the experiment
// harness reports exact numbers into EXPERIMENTS.md), and the Monte-Carlo
// fault simulator draws billions of variates, so we use xoshiro256** seeded
// via splitmix64 rather than math/rand's global, locked source. Each
// goroutine owns its own *Source; the type is deliberately not safe for
// concurrent use.
package simrand

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** pseudo-random generator. The zero value is not a
// valid generator; use New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded deterministically from seed. Distinct seeds
// yield statistically independent streams (seeded through splitmix64, the
// construction recommended by the xoshiro authors).
func New(seed uint64) *Source {
	var src Source
	src.seed(seed)
	return &src
}

// seed (re)initialises the generator in place from a 64-bit seed via four
// rounds of splitmix64.
func (s *Source) seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inversion. Scale by 1/rate for other rates.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson-distributed variate with the given mean.
// It uses Knuth multiplication for small means and the PTRS transformed
// rejection method for large means; both are exact.
func (s *Source) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		// Knuth: multiply uniforms until the product drops below e^-mean.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return s.poissonPTRS(mean)
	}
}

// poissonPTRS implements Hörmann's PTRS rejection sampler (1993), valid for
// mean >= 10; we use it above 30 where it is unambiguously faster.
func (s *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// PoissonSampler holds the per-mean constants (exp(-mean), PTRS
// coefficients, SkipZeros' tables) of Poisson draws at one fixed mean,
// computed once. The Monte-Carlo fault generator draws at a constant mean
// for every trial, and math.Exp(-mean) inside Poisson was ~25% of the
// whole campaign's CPU time before this was hoisted.
type PoissonSampler struct {
	mean       float64
	expNegMean float64 // e^-mean; also P(N == 0)
	small      bool
	// PTRS constants (mean >= 30 path).
	b, a, invAlpha, vr, logMean float64
	// skipPow[k] = (e^-mean)^k: geometric-inversion thresholds for
	// SkipZeros. A table scan replaces a ~50ns math.Log for all but the
	// q^32 tail of runs.
	skipPow [skipPowLen]float64
	// skipGuide[j] = min{k >= 1 : skipPow[k+1] < (j+1)/skipGuideLen}, a
	// lower bound on SkipZeros' answer for any u in bucket j. At 512
	// buckets the ~32 threshold crossings each land in one bucket, so for
	// ~94% of draws the scan exits without iterating — the branch
	// predictor sees an almost-always-false loop instead of a coin toss —
	// while the whole table stays resident in eight cache lines.
	skipGuide [skipGuideLen]uint8
}

const (
	skipPowLen   = 33
	skipGuideLen = 512
)

// NewPoissonSampler precomputes the sampling constants for the given mean.
func NewPoissonSampler(mean float64) PoissonSampler {
	p := PoissonSampler{mean: mean}
	if mean <= 0 {
		p.expNegMean = 1
		p.small = true
		return p
	}
	p.expNegMean = math.Exp(-mean)
	p.skipPow[0] = 1
	for k := 1; k < skipPowLen; k++ {
		p.skipPow[k] = p.skipPow[k-1] * p.expNegMean
	}
	// The bucket threshold (j+1)/skipGuideLen rises with j while skipPow
	// falls with k, so the guide is non-increasing in j: one backward walk
	// with a shared cursor builds all buckets in O(skipGuideLen) instead
	// of rescanning the power table per bucket. Capped at skipPowLen-2 so
	// the scan's skipPow[k+1] access stays in bounds; a lower start is
	// always safe (it only adds steps).
	k := 1
	for j := skipGuideLen - 1; j >= 0; j-- {
		thr := float64(j+1) / skipGuideLen
		for k+1 < skipPowLen-1 && p.skipPow[k+1] >= thr {
			k++
		}
		p.skipGuide[j] = uint8(k)
	}
	if mean < 30 {
		p.small = true
		return p
	}
	p.b = 0.931 + 2.53*math.Sqrt(mean)
	p.a = -0.059 + 0.02483*p.b
	p.invAlpha = 1.1239 + 1.1328/(p.b-3.4)
	p.vr = 0.9277 - 3.6224/(p.b-2)
	p.logMean = math.Log(mean)
	return p
}

func (p *PoissonSampler) samplePTRS(s *Source) int {
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*p.a/us+p.b)*u + p.mean + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*p.invAlpha/(p.a/(us*us)+p.b)) <= k*p.logMean-p.mean-lg {
			return int(k)
		}
	}
}

// SkipZeros returns a Geometric(1 - e^-mean) variate: how many consecutive
// trials draw N == 0 before the next N >= 1 trial. Exact inversion — skip k
// iff q^(k+1) <= u < q^k for q = P(N==0) — resolved against the
// precomputed power table, falling back to a logarithm only for the q^32
// run-length tail. Costs one uniform.
func (p *PoissonSampler) SkipZeros(s *Source) int {
	if p.mean <= 0 {
		panic("simrand: SkipZeros with non-positive mean")
	}
	u := s.Float64()
	if u >= p.skipPow[1] {
		return 0
	}
	if u >= p.skipPow[skipPowLen-1] {
		// The guide entry is a proven lower bound for every u in its
		// bucket (u < (j+1)/skipGuideLen), so scanning up from it lands on
		// exactly the k the full scan from 1 would: skip k iff
		// q^(k+1) <= u < q^k.
		k := int(p.skipGuide[int(u*skipGuideLen)])
		for u < p.skipPow[k+1] {
			k++
		}
		return k
	}
	if u <= 0 {
		return 1 << 62 // P = 2^-53: treat as an endless zero run
	}
	// floor(log(u)/log(q)) = floor(log(u)/-mean).
	v := math.Log(u) / -p.mean
	if v >= 1<<62 {
		return 1 << 62 // clamp: float→int overflow at minuscule means
	}
	return int(v)
}

// IntnSampler draws uniform ints in [0, n) with the Lemire rejection
// threshold (a 64-bit division) computed once instead of per draw.
type IntnSampler struct {
	n         uint64
	mask      uint64 // n-1 when n is a power of two, else 0
	threshold uint64
}

// NewIntnSampler precomputes the rejection threshold for Intn(n).
func NewIntnSampler(n int) IntnSampler {
	if n <= 0 {
		panic("simrand: IntnSampler with non-positive n")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return IntnSampler{n: un, mask: un - 1}
	}
	return IntnSampler{n: un, threshold: -un % un}
}

// Sample draws one int. It consumes the same uniforms in the same order as
// Source.Intn(n).
func (g *IntnSampler) Sample(s *Source) int {
	if g.mask != 0 || g.n == 1 {
		return int(s.Uint64() & g.mask)
	}
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, g.n)
		if lo >= g.threshold {
			return int(hi)
		}
	}
}

// WeightedSampler draws category indices proportionally to a fixed weight
// vector in O(1) per draw via Walker/Vose alias tables — one uniform, one
// comparison — replacing the linear cumulative scan the fault generator
// used per emitted record.
type WeightedSampler struct {
	prob  []float64
	alias []int32
}

// NewWeightedSampler builds the alias table (Vose's algorithm) for the
// given non-negative weights. It panics if no weight is positive.
func NewWeightedSampler(weights []float64) WeightedSampler {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("simrand: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("simrand: no positive weight")
	}
	ws := WeightedSampler{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		ws.prob[s] = scaled[s]
		ws.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers land on probability 1.
	for _, i := range large {
		ws.prob[i] = 1
		ws.alias[i] = i
	}
	for _, i := range small {
		ws.prob[i] = 1
		ws.alias[i] = i
	}
	return ws
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
