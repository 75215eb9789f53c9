// Package obs is a small, dependency-free metrics layer for watching
// long-running simulations live: lock-free atomic counters, gauges and
// fixed-bucket histograms behind a named registry with a consistent
// Snapshot().
//
// Two properties shape the design:
//
//   - Hot-path neutrality. Every metric update is a single atomic
//     operation (histograms add a bounds search), never an allocation, so
//     instrumentation can sit on the Monte-Carlo trial path and the memory
//     simulator's request path without moving the benchmarks. Instrumented
//     code resolves its metrics ONCE (a *Counter field, not a registry
//     lookup per event).
//
//   - Nil as off-switch. Every method is safe on a nil receiver: a nil
//     *Registry hands out nil metrics, and updating a nil metric is a
//     no-op. Instrumented code therefore carries no "is observability
//     enabled?" branches of its own — it updates unconditionally, and an
//     un-instrumented run pays one predictable nil check per event.
//
// Snapshots are taken concurrently with writers. Per-metric reads are
// atomic and monotone (a counter never appears to decrease across
// snapshots) and a histogram's bucket counts are internally consistent
// (Count is derived from the buckets), but a snapshot is not a global
// barrier: two metrics updated by the same event may be captured one
// event apart.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count; zero on a nil receiver.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (a level, not a rate). The zero
// value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value; zero on a nil receiver.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative-style histogram: bucket i counts
// observations v <= Bounds[i], with one implicit overflow bucket above the
// last bound. Buckets and the running sum are updated with atomic
// operations only; Observe never allocates. A nil *Histogram discards
// observations.
type Histogram struct {
	bounds  []float64 // sorted, immutable after construction
	buckets []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound is >= v; len(bounds) is the overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramBatch counts observations for one Histogram in plain memory: a
// single goroutine fills it with no atomic operations on a hot path and
// publishes it in bulk with Flush, at a coarser grain. The zero value, and
// a batch over a nil Histogram, discard everything.
type HistogramBatch struct {
	h      *Histogram
	counts []uint64
	sum    float64
}

// Batch returns an empty batch feeding h.
func (h *Histogram) Batch() HistogramBatch {
	if h == nil {
		return HistogramBatch{}
	}
	return HistogramBatch{h: h, counts: make([]uint64, len(h.buckets))}
}

// Observe records one value in the batch. It finds the bucket by a linear
// scan, which for the few bounds a histogram has, and values that mostly
// land in its first buckets, beats the binary search Observe pays for.
func (b *HistogramBatch) Observe(v float64) {
	if b.h == nil {
		return
	}
	i := 0
	for i < len(b.h.bounds) && !(b.h.bounds[i] >= v) {
		i++
	}
	b.counts[i]++
	b.sum += v
}

// Flush adds the batch to its histogram — one atomic add per nonempty
// bucket and one for the sum — and empties it.
func (b *HistogramBatch) Flush() {
	if b.h == nil {
		return
	}
	for i, n := range b.counts {
		if n != 0 {
			b.h.buckets[i].Add(n)
		}
	}
	b.h.addSum(b.sum)
	clear(b.counts)
	b.sum = 0
}

// Sum returns the sum of all observed values; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts has
// len(Bounds)+1 entries: Counts[i] holds observations <= Bounds[i], and the
// final entry is the overflow above the last bound. Count is always the sum
// of Counts, so the invariant holds even for snapshots taken mid-update.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Mean returns the average observed value, or 0 with no observations.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot is one registry's state at a point in time, ready for JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a named set of metrics. The zero value is NOT usable — use
// NewRegistry — but a nil *Registry is: it hands out nil metrics, turning
// every downstream update into a no-op, which is how instrumented code
// runs unobserved without branching.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (discard-everything) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (discard-everything) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the existing buckets and
// ignore bounds). A nil registry returns a nil (discard-everything)
// histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every registered metric. Safe to call concurrently
// with writers; see the package comment for the consistency contract. A
// nil registry yields an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: h.bounds, // immutable, shared
			Counts: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
			hs.Count += hs.Counts[i]
		}
		hs.Sum = h.Sum()
		snap.Histograms[name] = hs
	}
	return snap
}
