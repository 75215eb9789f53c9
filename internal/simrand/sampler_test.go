package simrand

import (
	"math"
	"testing"
)

// Sample draws one variate. It consumes the same uniforms in the same
// order as Source.Poisson(mean), so switching call sites preserves streams.
func (p *PoissonSampler) Sample(s *Source) int {
	if p.mean <= 0 {
		return 0
	}
	if p.small {
		k := 0
		prod := 1.0
		for {
			prod *= s.Float64()
			if prod <= p.expNegMean {
				return k
			}
			k++
		}
	}
	return p.samplePTRS(s)
}

// SamplePositive draws a zero-truncated Poisson variate (N >= 1) by
// inversion on the truncated CDF. Together with SkipZeros it decomposes the
// i.i.d. Poisson trial sequence exactly: a geometric run of N==0 trials
// followed by one N>=1 trial, without spending any uniforms on the zeros.
// TruncPoisson resolves the same inversion faster; this plain walk is the
// law its tests hold it to.
func (p *PoissonSampler) SamplePositive(s *Source) int {
	if p.mean <= 0 {
		panic("simrand: SamplePositive with non-positive mean")
	}
	if !p.small {
		// Truncation is a no-op correction at large means (P(0) ~ e^-30);
		// rejection terminates almost immediately.
		for {
			if k := p.samplePTRS(s); k >= 1 {
				return k
			}
		}
	}
	u := s.Float64() * (1 - p.expNegMean)
	k := 1
	pk := p.mean * p.expNegMean // P(N == 1)
	for {
		u -= pk
		if u < 0 || pk == 0 {
			return k
		}
		k++
		pk *= p.mean / float64(k)
	}
}

// Sample draws one index. It costs exactly one uniform.
func (w *WeightedSampler) Sample(s *Source) int {
	return w.Lookup(s.Float64())
}

// TestPoissonSamplerStreamIdentical: the cached-constant sampler must
// consume the same uniforms and return the same variates as the ad-hoc
// Source.Poisson, so call sites can switch without perturbing streams.
func TestPoissonSamplerStreamIdentical(t *testing.T) {
	for _, mean := range []float64{0.05, 0.29, 1, 7.5, 29.9, 30, 120} {
		p := NewPoissonSampler(mean)
		a, b := New(42), New(42)
		for i := 0; i < 5000; i++ {
			got, want := p.Sample(a), b.Poisson(mean)
			if got != want {
				t.Fatalf("mean %v draw %d: sampler %d != Poisson %d", mean, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("mean %v: streams diverged", mean)
		}
	}
}

// TestSamplePositiveDistribution checks the zero-truncated inversion
// against the analytic zero-truncated pmf for k = 1..3.
func TestSamplePositiveDistribution(t *testing.T) {
	mean := 0.29
	p := NewPoissonSampler(mean)
	s := New(5)
	const n = 300_000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		k := p.SamplePositive(s)
		if k < 1 {
			t.Fatalf("SamplePositive returned %d", k)
		}
		counts[k]++
	}
	q := math.Exp(-mean)
	pk := mean * q / (1 - q) // P(1 | N >= 1)
	for k := 1; k <= 3; k++ {
		got := float64(counts[k]) / n
		if math.Abs(got-pk) > 5*math.Sqrt(pk*(1-pk)/n)+1e-4 {
			t.Errorf("P(%d) = %.5f, want %.5f", k, got, pk)
		}
		pk *= mean / float64(k+1)
	}
}

// TestSkipZerosDistribution checks the geometric inversion including the
// table/log boundary.
func TestSkipZerosDistribution(t *testing.T) {
	mean := 0.03 // q = 0.9704: long runs exercise the table and the tail
	p := NewPoissonSampler(mean)
	s := New(11)
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(p.SkipZeros(s))
	}
	q := math.Exp(-mean)
	want := q / (1 - q)
	got := sum / n
	sd := math.Sqrt(q) / (1 - q)
	if math.Abs(got-want) > 5*sd/math.Sqrt(n) {
		t.Errorf("mean skip %.3f, want %.3f", got, want)
	}
}

// TestIntnSamplerStreamIdentical: cached Lemire threshold must match
// Source.Intn draw for draw.
func TestIntnSamplerStreamIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 13, 72, 1 << 20, 1<<20 + 7} {
		g := NewIntnSampler(n)
		a, b := New(1234), New(1234)
		for i := 0; i < 3000; i++ {
			got, want := g.Sample(a), b.Intn(n)
			if got != want {
				t.Fatalf("n %d draw %d: sampler %d != Intn %d", n, i, got, want)
			}
		}
	}
}

// TestWeightedSamplerDistribution: alias-table frequencies must match the
// weight vector.
func TestWeightedSamplerDistribution(t *testing.T) {
	weights := []float64{14.2, 18.6, 1.4, 0.3, 1.4, 5.6, 0.2, 8.2, 0.8, 10, 0.3, 1.4, 0.9, 2.8}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	ws := NewWeightedSampler(weights)
	s := New(77)
	const n = 500_000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		k := ws.Sample(s)
		if k < 0 || k >= len(weights) {
			t.Fatalf("index %d out of range", k)
		}
		counts[k]++
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n)+1e-4 {
			t.Errorf("class %d: freq %.5f, want %.5f", i, got, want)
		}
	}
}

// TestWeightedSamplerDegenerate: single-class and zero-weight entries.
func TestWeightedSamplerDegenerate(t *testing.T) {
	ws := NewWeightedSampler([]float64{0, 3.5, 0})
	s := New(3)
	for i := 0; i < 10_000; i++ {
		if k := ws.Sample(s); k != 1 {
			t.Fatalf("zero-weight class %d drawn", k)
		}
	}
}
