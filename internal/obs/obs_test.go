package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// Count returns the total number of observations; zero on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("g") != g {
		t.Fatal("Gauge is not get-or-create")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["h"]
	want := []uint64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {2}; <=100: {50}; overflow: {1000}
	if len(hs.Counts) != len(want) {
		t.Fatalf("counts = %v", hs.Counts)
	}
	for i := range want {
		if hs.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", hs.Counts, want)
		}
	}
	if hs.Count != 5 {
		t.Fatalf("count = %d, want 5", hs.Count)
	}
	if math.Abs(hs.Sum-1053.5) > 1e-9 {
		t.Fatalf("sum = %v, want 1053.5", hs.Sum)
	}
	if math.Abs(hs.Mean()-1053.5/5) > 1e-9 {
		t.Fatalf("mean = %v", hs.Mean())
	}
}

// TestNilRegistryAndMetricsAreNoOps pins the off-switch contract: a nil
// registry hands out nil metrics and every operation on them is safe.
func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(2)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestConcurrentWriters exercises every metric kind from many goroutines
// while snapshots are taken; run under -race (CI does) this doubles as the
// data-race proof, and the final totals pin that no update was lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 10_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := r.Snapshot()
				for name, hs := range snap.Histograms {
					var sum uint64
					for _, n := range hs.Counts {
						sum += n
					}
					if sum != hs.Count {
						t.Errorf("histogram %s: Count %d != bucket sum %d", name, hs.Count, sum)
						return
					}
				}
			}
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			c := r.Counter("ops")
			g := r.Gauge("level")
			h := r.Histogram("lat", []float64{10, 100, 1000})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 2000))
			}
		}()
	}
	wgWriters := writers * perWriter
	writerWG.Wait()
	close(stop)
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["ops"] != uint64(wgWriters) {
		t.Fatalf("ops = %d, want %d", snap.Counters["ops"], wgWriters)
	}
	if snap.Gauges["level"] != int64(wgWriters) {
		t.Fatalf("level = %d, want %d", snap.Gauges["level"], wgWriters)
	}
	if hs := snap.Histograms["lat"]; hs.Count != uint64(wgWriters) {
		t.Fatalf("lat count = %d, want %d", hs.Count, wgWriters)
	}
}

// TestSnapshotMonotone pins that counters never decrease across snapshots
// taken while writers run.
func TestSnapshotMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100_000; i++ {
			c.Inc()
		}
	}()
	var last uint64
	for i := 0; i < 1000; i++ {
		now := r.Snapshot().Counters["mono"]
		if now < last {
			t.Fatalf("counter went backwards: %d -> %d", last, now)
		}
		last = now
	}
	<-done
}

// TestUpdatesAllocationFree pins the hot-path contract: metric updates
// (and nil no-ops) never touch the heap.
func TestUpdatesAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100, 1000})
	var nilC *Counter
	var nilH *Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(42)
		nilC.Inc()
		nilH.Observe(42)
	}); allocs != 0 {
		t.Fatalf("metric updates allocate: %v allocs/op", allocs)
	}
}

// TestHistogramBatchMatchesObserve: observations counted in a batch and
// flushed in bulk land exactly as the same observations made one by one,
// the batch allocates nothing once made, and a nil histogram's batch
// discards everything.
func TestHistogramBatchMatchesObserve(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4, 8}
	direct, bulk := r.Histogram("direct", bounds), r.Histogram("bulk", bounds)
	b := bulk.Batch()
	var nilH *Histogram
	nb := nilH.Batch()
	vals := []float64{0, 1, 1.5, 2, 3, 8, 9, 100}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			direct.Observe(v)
			b.Observe(v)
			nb.Observe(v)
		}
		b.Flush()
		nb.Flush()
	}); allocs != 0 {
		t.Fatalf("batched observations allocate: %v allocs/op", allocs)
	}
	snap := r.Snapshot()
	d, k := snap.Histograms["direct"], snap.Histograms["bulk"]
	if d.Count == 0 || d.Count != k.Count || d.Sum != k.Sum || !reflect.DeepEqual(d.Counts, k.Counts) {
		t.Fatalf("bulk histogram %+v differs from direct %+v", k, d)
	}
	b.Flush() // an empty flush adds nothing
	if again := r.Snapshot().Histograms["bulk"]; again.Count != k.Count || again.Sum != k.Sum {
		t.Fatalf("empty flush changed the histogram: %+v", again)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-2)
	r.Histogram("c", []float64{1, 2}).Observe(1.5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 3 || back.Gauges["b"] != -2 {
		t.Fatalf("round trip mangled snapshot: %+v", back)
	}
	hs := back.Histograms["c"]
	if hs.Count != 1 || len(hs.Counts) != 3 || hs.Counts[1] != 1 {
		t.Fatalf("round trip mangled histogram: %+v", hs)
	}
}
