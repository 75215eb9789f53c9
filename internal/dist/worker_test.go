package dist

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xedsim/internal/faultsim"
)

// countedCores wraps a worker's compute tokens and counts them through
// the seam every compute goroutine passes: held is how many goroutines
// hold a token, peak the most that ever did at once, lent how many tokens
// spans took for helpers and yielded how many helpers handed theirs back
// because a lease loop waited. With inFlight set, a span's TryAcquire
// waits until inFlight spans have started, so that many units are in
// flight, each holding its loop's token, before any span looks for an idle
// core; and it returns once they have all looked, so no unit finishes and
// frees its token first.
type countedCores struct {
	inner                    *cores
	held, peak, lent, yields atomic.Int32

	inFlight, looked *barrier

	// onWanted, when set, runs before each Wanted answer.
	onWanted func()
}

func newCountedCores(ctx context.Context, w *Worker, inFlight int32) *countedCores {
	c := &countedCores{inner: w.cores.(*cores)}
	if inFlight > 0 {
		c.inFlight, c.looked = newBarrier(ctx, inFlight), newBarrier(ctx, inFlight)
	}
	w.cores = c
	return c
}

// barrier lets its waiters go once n have arrived, or once ctx ends.
type barrier struct {
	ctx     context.Context
	n       int32
	arrived atomic.Int32
	all     chan struct{}
}

func newBarrier(ctx context.Context, n int32) *barrier {
	return &barrier{ctx: ctx, n: n, all: make(chan struct{})}
}

func (b *barrier) wait() {
	if b.arrived.Add(1) == b.n {
		close(b.all)
	}
	select {
	case <-b.all:
	case <-b.ctx.Done():
	}
}

func (c *countedCores) hold() {
	n := c.held.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
}

func (c *countedCores) acquire(ctx context.Context) error {
	if err := c.inner.acquire(ctx); err != nil {
		return err
	}
	c.hold()
	return nil
}

func (c *countedCores) TryAcquire() bool {
	if c.inFlight != nil {
		c.inFlight.wait()
		defer c.looked.wait()
	}
	if !c.inner.TryAcquire() {
		return false
	}
	c.lent.Add(1)
	c.hold()
	return true
}

func (c *countedCores) Wanted() bool {
	if c.onWanted != nil {
		c.onWanted()
	}
	if !c.inner.Wanted() {
		return false
	}
	c.yields.Add(1)
	return true
}

func (c *countedCores) Release() {
	c.held.Add(-1)
	c.inner.Release()
}

// runCountedWorker serves spec with one Parallel: 2 worker whose tokens
// are counted, and checks the job's Report against a local run's.
func runCountedWorker(t *testing.T, spec *JobSpec, inFlight int32) *countedCores {
	t.Helper()
	localRep, _ := localRun(t, spec)
	c := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := NewWorker(WorkerOptions{ID: "w", Coordinator: srv.URL, Parallel: 2})
	cc := newCountedCores(ctx, w, inFlight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()
	rep, err := NewClient(srv.URL, nil).RunCampaign(ctx, spec)
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("service Report differs from local RunCampaign")
	}
	if p := cc.peak.Load(); p > 2 {
		t.Fatalf("%d compute goroutines at once, Parallel is 2", p)
	}
	if h := cc.held.Load(); h != 0 {
		t.Fatalf("%d tokens still held after Run returned", h)
	}
	return cc
}

// TestLoneUnitComputesOnEveryCore: with Parallel: 2, a job of one unit
// computes on its lease loop's core and on the idle loop's.
func TestLoneUnitComputesOnEveryCore(t *testing.T) {
	cc := runCountedWorker(t, oneUnitSpec(), 0)
	if cc.lent.Load() != 1 || cc.peak.Load() != 2 {
		t.Fatalf("lone unit: %d helper tokens lent, peak %d goroutines; want 1 and 2", cc.lent.Load(), cc.peak.Load())
	}
}

// TestUnitsInFlightComputeOnOneCoreEach: with Parallel: 2 and two units in
// flight, each unit computes on its own loop's core alone.
func TestUnitsInFlightComputeOnOneCoreEach(t *testing.T) {
	spec := testSpec()
	spec.Trials = 2 * unitChunks * faultsim.DefaultChunkSize // two units
	cc := runCountedWorker(t, spec, 2)
	if cc.lent.Load() != 0 || cc.peak.Load() != 2 {
		t.Fatalf("two units in flight: %d helper tokens lent, peak %d goroutines; want 0 and 2", cc.lent.Load(), cc.peak.Load())
	}
}

// TestHelperYieldsToWaitingLoop: a span's helper hands its core back at
// its next chunk boundary once another lease loop waits for one, and both
// units still compute what RunSpan computes.
func TestHelperYieldsToWaitingLoop(t *testing.T) {
	spec := testSpec()
	schemes, err := spec.ResolveSchemes()
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func() *faultsim.ChunkRunner {
		r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ctx := context.Background()
	want := make([]*faultsim.ChunkResult, 2)
	for u := range want {
		if want[u], err = newRunner().RunSpan(ctx, u*unitChunks, (u+1)*unitChunks); err != nil {
			t.Fatal(err)
		}
	}

	w := NewWorker(WorkerOptions{Parallel: 2})
	cc := newCountedCores(ctx, w, 0)
	// The helper's first Wanted waits until the second loop waits for a
	// core, so the helper claims no chunk before it yields.
	helperStarted := make(chan struct{})
	var first atomic.Bool
	cc.onWanted = func() {
		if first.CompareAndSwap(false, true) {
			close(helperStarted)
			for !cc.inner.Wanted() {
				runtime.Gosched()
			}
		}
	}
	got := make([]*faultsim.ChunkResult, 2)
	r0, r1 := newRunner(), newRunner()
	errs := make(chan error, 1)
	if err := cc.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		var err error
		got[0], err = r0.RunSpanOn(ctx, 0, unitChunks, cc)
		cc.Release()
		errs <- err
	}()
	<-helperStarted
	if err := cc.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	got[1], err = r1.RunSpanOn(ctx, unitChunks, 2*unitChunks, cc)
	cc.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("units computed with a yielding helper differ from RunSpan's")
	}
	// The first unit may finish while the second starts its span, and then
	// the second borrows the freed core too.
	if cc.lent.Load() < 1 || cc.yields.Load() != 1 || cc.peak.Load() != 2 || cc.held.Load() != 0 {
		t.Fatalf("lent %d, yields %d, peak %d, still held %d; want at least 1, 1, 2, 0",
			cc.lent.Load(), cc.yields.Load(), cc.peak.Load(), cc.held.Load())
	}
}
