package simrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(8)
	same := 0
	a = New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds nearly identical (%d collisions)", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	sum := 0.0
	const n = 200_000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.495 || mean > 0.505 {
		t.Fatalf("Float64 mean %v, want ≈0.5", mean)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(2)
	const buckets = 7
	counts := make([]int, buckets)
	const n = 700_000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if f := float64(c); f < want*0.98 || f > want*1.02 {
			t.Fatalf("bucket %d count %d, want ≈%v", b, c, want)
		}
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(3)
	for i := 0; i < 10_000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 300_000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; mean < 0.99 || mean > 1.01 {
		t.Fatalf("exponential mean %v, want ≈1", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(5)
	for _, mean := range []float64{0.01, 0.5, 3, 29, 35, 200} {
		const n = 120_000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		tol := 4 * math.Sqrt(mean/n) * math.Max(1, math.Sqrt(mean))
		if math.Abs(m-mean) > math.Max(tol, 0.01) {
			t.Fatalf("Poisson(%v) mean %v", mean, m)
		}
		// Poisson variance equals the mean.
		if mean >= 0.5 && (variance < mean*0.93 || variance > mean*1.07) {
			t.Fatalf("Poisson(%v) variance %v", mean, variance)
		}
	}
	if New(1).Poisson(0) != 0 || New(1).Poisson(-1) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(7)
	if r.Bernoulli(0) || !r.Bernoulli(1) {
		t.Fatal("Bernoulli edges wrong")
	}
	hits := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; f < 0.24 || f > 0.26 {
		t.Fatalf("Bernoulli(0.25) rate %v", f)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkPoissonSmallMean(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Poisson(0.3)
	}
	_ = sink
}

func BenchmarkPoissonLargeMean(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Poisson(500)
	}
	_ = sink
}
