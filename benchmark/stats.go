package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// metricName is the shape every metric name must have: BENCHMARK.json and
// the result line share it.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones an external checker
// derives from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailPercentile returns the highest whole percentile that leaves at least
// ten of n samples strictly above it under the nearest-rank rule (95
// samples give p89). With ten samples or fewer no percentile qualifies and
// it returns 100: the tail is then the maximum.
func tailPercentile(n int) int {
	if n <= 10 {
		return 100
	}
	return 100 * (n - 10) / n
}

// nearestRank returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p percent of the samples at or below it.
func nearestRank(xs []float64, p int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
