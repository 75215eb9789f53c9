package main

import (
	"math"
	"testing"
	"time"
)

func TestMetricNameShape(t *testing.T) {
	for _, ok := range []string{"work_per_s", "dist.rtt_ms.submit.p50", "conformance.fig9.xedck-over-dck.s", "trace.overhead_pct"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "fig7/xed", "a b", "x+y", "p50%", "名"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, c := range gateClaims {
		if name := claimMetric(c); !metricName.MatchString(name) {
			t.Errorf("claim %s gives metric name %q", c, name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct{ n, p int }{
		{95, 89}, // the rule's worked example
		{100, 90},
		{40, 75},
		{11, 9},
		{10, 100}, // too few samples: the maximum
		{1, 100},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.p)
		}
	}
	// At least ten samples lie strictly above the chosen percentile.
	xs := make([]float64, 95)
	for i := range xs {
		xs[i] = float64(i)
	}
	v := nearestRank(xs, tailPercentile(len(xs)))
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Errorf("%d samples above p89 of 95, want 10", above)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same inputs.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // extrapolated, as Python does
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestEndToEndScalesToReferenceSpeed(t *testing.T) {
	// Two operations of 100 units of work, run while the canary took twice
	// and half its reference time, read as 50 ms and 200 ms at the
	// reference speed; a traced operation counts for nothing.
	o := &outcome{
		setup: []time.Duration{time.Second, 3 * time.Second},
		samples: []sample{
			{dur: 100 * time.Millisecond, work: 100, scale: 0.5},
			{dur: 100 * time.Millisecond, work: 100, scale: 2},
			{dur: time.Hour, work: 1, scale: 1, traced: true},
		},
	}
	m, _ := endToEnd(o)
	for name, want := range map[string]float64{"op_p50_ms": 125, "op_tail_ms": 200, "work_per_s": 1250, "setup_s": 2} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if got := millis([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("millis = %v", got)
	}
}
