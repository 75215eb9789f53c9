// Batch sampling primitives for the structure-of-arrays trial generator.
//
// The scalar samplers in this package draw one variate per call; the
// campaign's batch plan (internal/faultsim) instead samples whole chunk
// columns at a time. The primitives here keep the xoshiro state in
// registers across a fill, replace the per-draw truncated-Poisson CDF walk
// with a guide-table lookup, and amortize the Lemire bounded-draw rejection
// over a pre-filled word column. All of them are exact: each produces the
// same distribution as its scalar counterpart (several, noted below, consume
// uniforms in a different order, which is why batch-planned campaigns draw
// a distinct, conformance-gated stream rather than a bit-identical
// drop-in for the scalar one).

package simrand

import "math/bits"

// FillUint64 fills dst with the next len(dst) outputs of the generator, in
// order — identical to calling Uint64 len(dst) times, but with the state
// kept in locals across the loop.
func (s *Source) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// FillFloat64 fills dst with uniform float64s in [0, 1), identical to
// calling Float64 len(dst) times.
func (s *Source) FillFloat64(dst []float64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		w := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = float64(w>>11) * (1.0 / (1 << 53))
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Fill fills dst with uniform ints in [0, n), consuming one pre-drawn word
// per element from a bulk FillUint64 pass over words (which must have
// len(words) >= len(dst)), then resolving Lemire rejections — vanishingly
// rare for the small n used here — with scalar redraws in ascending index
// order. The draw order (column first, then fix-ups) differs from repeated
// Sample calls but the per-element distribution is identical: accepted
// words map exactly as in Sample, and each rejected slot redraws from the
// same rejection loop.
func (g *IntnSampler) Fill(s *Source, dst []int32, words []uint64) {
	words = words[:len(dst)]
	s.FillUint64(words)
	if g.mask != 0 || g.n == 1 {
		mask := g.mask
		for i, v := range words {
			dst[i] = int32(v & mask)
		}
		return
	}
	n, threshold := g.n, g.threshold
	for i, v := range words {
		hi, lo := bits.Mul64(v, n)
		for lo < threshold {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
		dst[i] = int32(hi)
	}
}

// Lookup resolves one alias-table draw from a uniform u in [0, 1). Sample
// is Lookup composed with Float64; the batch generator separates the two so
// the uniforms can come from a FillFloat64 column.
func (w *WeightedSampler) Lookup(u float64) int {
	u *= float64(len(w.prob))
	i := int(u)
	if i >= len(w.prob) {
		i = len(w.prob) - 1
	}
	if u-float64(i) < w.prob[i] {
		return i
	}
	return int(w.alias[i])
}

// PosRun is one entry of the chunk arrival plan produced by
// NextPositiveRuns: Skip consecutive trials drew zero faults, then one
// trial drew Count (>= 1) faults.
type PosRun struct {
	Skip  int32
	Count int32
}

// truncGuideSize buckets the unit interval for the guide table; 128 entries
// put the expected forward scan below one step for any mean under 30.
const truncGuideSize = 128

// truncCDFMax caps the precomputed CDF length. mean+12 standard deviations
// stays under 100 for every mean below 30, so the cap is never the binding
// limit; Lookup extends the recurrence past the table for the (< 2^-53)
// residual tail regardless.
const truncCDFMax = 512

// TruncPoisson draws zero-truncated Poisson variates (N >= 1) for one fixed
// mean via guide-table CDF inversion: one uniform, one table lookup, and an
// expected O(1) forward scan, replacing the subtractive CDF walk of
// SamplePositive (O(mean) per draw; a test oracle in sampler_test.go). For mean >= 30 it falls back to PTRS rejection,
// where truncation is a ~e^-30 no-op. Distribution-exact with respect to
// the truncated pmf, but NOT uniform-for-uniform identical to
// SamplePositive: the two resolve the same inversion with differently
// rounded partial sums.
type TruncPoisson struct {
	p       PoissonSampler
	cdf     []float64 // cdf[i] = P(N <= i+1 | N >= 1); empty when !p.small
	cdf0    float64   // cdf[0], inline: the k=1 mass dominates at small means
	guide   []int32   // guide[j] = min{i : cdf[i] > j/truncGuideSize}
	tailPmf float64   // P(N == len(cdf)+1 | N >= 1), for the residual tail
}

// NewTruncPoisson precomputes the truncated CDF and guide table for the
// given mean. A non-positive mean yields a sampler whose NextPositiveRuns
// returns no runs (every trial is empty) and whose Sample panics.
func NewTruncPoisson(mean float64) TruncPoisson {
	t := TruncPoisson{p: NewPoissonSampler(mean)}
	if mean <= 0 || !t.p.small {
		return t
	}
	// pk = P(N == k | N >= 1), built by the same recurrence SamplePositive
	// walks, accumulated once.
	norm := 1 - t.p.expNegMean
	pk := t.p.mean * t.p.expNegMean / norm // k = 1
	c := 0.0
	k := 1
	for {
		c += pk
		t.cdf = append(t.cdf, c)
		k++
		pk *= t.p.mean / float64(k)
		if (1-c < 1e-18 && len(t.cdf) >= 2) || len(t.cdf) >= truncCDFMax || pk == 0 {
			break
		}
	}
	t.tailPmf = pk
	t.cdf0 = t.cdf[0]
	t.guide = make([]int32, truncGuideSize)
	i := 0
	for j := range t.guide {
		thr := float64(j) / truncGuideSize
		for i < len(t.cdf) && t.cdf[i] <= thr {
			i++
		}
		t.guide[j] = int32(i)
	}
	return t
}

// Sample draws one zero-truncated variate. Costs one uniform on the
// guide-table path.
func (t *TruncPoisson) Sample(s *Source) int {
	if t.p.mean <= 0 {
		panic("simrand: TruncPoisson.Sample with non-positive mean")
	}
	if !t.p.small {
		for {
			if k := t.p.samplePTRS(s); k >= 1 {
				return k
			}
		}
	}
	return t.Lookup(s.Float64())
}

// Lookup inverts the truncated CDF at u in [0, 1): it returns the smallest
// k >= 1 with u < P(N <= k | N >= 1). Exposed so tests can compare the
// guide-table jump against a plain linear scan over the same table.
func (t *TruncPoisson) Lookup(u float64) int {
	// Inline k=1 exit: at the sub-1 means the campaign runs, most of the
	// truncated mass sits on a single fault, so one compare against the
	// struct-resident cdf[0] beats the guide's two dependent loads. Same
	// inversion: u < cdf[0] is exactly the guide path's k=1 verdict.
	if u < t.cdf0 {
		return 1
	}
	k := int(t.guide[int(u*truncGuideSize)])
	for k < len(t.cdf) && u >= t.cdf[k] {
		k++
	}
	if k < len(t.cdf) {
		return k + 1
	}
	// Residual tail past the table (probability < 2^-53 per draw when the
	// CDF converged; reachable only through the truncCDFMax cap, which no
	// mean under 30 hits). Continue the pmf recurrence.
	u -= t.cdf[len(t.cdf)-1]
	k = len(t.cdf) + 1
	pk := t.tailPmf
	for {
		u -= pk
		if u < 0 || pk == 0 {
			return k
		}
		k++
		pk *= t.p.mean / float64(k)
	}
}

// NextPositiveRuns plans the arrivals for a whole chunk of `budget` i.i.d.
// Poisson trials: it appends (Skip, Count) pairs to runs until the trials
// are exhausted and returns the extended slice. The decomposition is exact
// — a Geometric(1-e^-mean) run of zero trials, then one zero-truncated
// count — and the chunk boundary is handled without drawing a count: when
// the zero run covers every remaining trial (probability q^remaining,
// exactly the chance that all of them are empty), planning stops.
//
// The sum of (Skip+1) over the returned runs is at most budget; trials past
// the final run are all zero-fault.
func (t *TruncPoisson) NextPositiveRuns(s *Source, budget int, runs []PosRun) []PosRun {
	if t.p.mean <= 0 {
		return runs
	}
	for remaining := budget; remaining > 0; {
		skip := t.p.SkipZeros(s)
		if skip >= remaining {
			break
		}
		runs = append(runs, PosRun{Skip: int32(skip), Count: int32(t.Sample(s))})
		remaining -= skip + 1
	}
	return runs
}
