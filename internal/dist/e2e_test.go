package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xedsim/internal/dist/chaos"
	"xedsim/internal/faultsim"
)

// fastWorker returns worker options tuned for test latency.
func fastWorker(id, base string) WorkerOptions {
	return WorkerOptions{
		ID:                id,
		Coordinator:       base,
		HeartbeatInterval: 100 * time.Millisecond,
		BackoffMin:        2 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
	}
}

// TestWorkersEndToEnd runs the whole service in-process over real HTTP:
// two parallel workers drain a job submitted through the Client, and the
// result is bit-identical to a local RunCampaign.
func TestWorkersEndToEnd(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		w := NewWorker(fastWorker(id, srv.URL))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck
		}()
	}

	cl := NewClient(srv.URL, nil)
	cl.PollInterval = 10 * time.Millisecond
	rep, err := cl.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("service Report differs from local RunCampaign")
	}
	st, err := cl.Status(ctx, mustHash(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CheckpointBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(localBytes) {
		t.Fatal("service checkpoint bytes differ from local checkpoint file")
	}
	cancel()
	wg.Wait()
}

// TestWorkerKeepsOneRunnerPerLoop: a long-lived worker serving job after
// job keeps at most one ChunkRunner per lease loop — the current job's —
// instead of one for every job it ever served.
func TestWorkerKeepsOneRunnerPerLoop(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	opts := fastWorker("w", srv.URL)
	opts.Parallel = 2
	w := NewWorker(opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()

	cl := NewClient(srv.URL, nil)
	cl.PollInterval = 10 * time.Millisecond
	const jobs = 4
	ids := map[string]bool{}
	for i := 0; i < jobs; i++ {
		spec := testSpec()
		spec.Seed += uint64(i)
		if _, err := cl.RunCampaign(ctx, spec); err != nil {
			t.Fatal(err)
		}
		ids[mustHash(t, spec)] = true
	}
	cancel()
	<-done
	if len(ids) != jobs {
		t.Fatalf("%d distinct jobs, want %d", len(ids), jobs)
	}
	for i, loop := range w.runners {
		if loop.r != nil && !ids[loop.jobID] {
			t.Fatalf("loop %d holds a runner for unknown job %.12s", i, loop.jobID)
		}
	}
	if len(w.runners) != opts.Parallel {
		t.Fatalf("%d runner caches for %d lease loops", len(w.runners), opts.Parallel)
	}
}

// TestJobRunnerReplacesPreviousJob: a loop's runner cache reuses the
// runner while leases stay on one job and drops it for the next job's.
func TestJobRunnerReplacesPreviousJob(t *testing.T) {
	var cache jobRunner
	a, b := testSpec(), testSpec()
	b.Seed++
	leaseA := &Lease{JobID: mustHash(t, a), Spec: *a}
	leaseB := &Lease{JobID: mustHash(t, b), Spec: *b}
	ra, err := cache.get(leaseA)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := cache.get(leaseA); again != ra {
		t.Fatal("a second lease of the same job rebuilt its runner")
	}
	rb, err := cache.get(leaseB)
	if err != nil {
		t.Fatal(err)
	}
	if rb == ra || cache.r != rb || cache.jobID != leaseB.JobID {
		t.Fatal("the cache kept the previous job's runner")
	}
	bad := &Lease{JobID: "bad", Spec: JobSpec{Schemes: []string{"TMR"}, Trials: 1}}
	if _, err := cache.get(bad); err == nil || cache.r != nil {
		t.Fatalf("unbuildable spec: err %v, cached runner %v", err, cache.r)
	}
}

func mustHash(t *testing.T, spec *JobSpec) string {
	t.Helper()
	schemes, err := spec.ResolveSchemes()
	if err != nil {
		t.Fatal(err)
	}
	m, err := faultsim.NewMerger(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m.Hash()
}

// TestChaosBitIdentical is the headline robustness proof. The schedule is
// deliberately deterministic:
//
//  1. Worker B (no faults) completes exactly 3 units, then crash-stops
//     (kill-worker-after-N-units).
//  2. The coordinator persists and is torn down mid-job; a second
//     incarnation recovers from the same state dir.
//  3. Worker A finishes the job through a chaos transport that drops
//     responses (forcing retries of possibly-merged completions),
//     duplicates deliveries, and injects delays — and the submitting
//     client runs through a duplicating transport of its own.
//
// After all that, the Report and the canonical checkpoint bytes must equal
// a single-process RunCampaign's, byte for byte.
func TestChaosBitIdentical(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)
	dir := t.TempDir()

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 2, LeaseTTL: time.Second})
	srv1 := httptest.NewServer(c1.Handler())
	st, err := c1.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: worker B merges 3 units and dies.
	optsB := fastWorker("worker-b", srv1.URL)
	optsB.MaxUnits = 3
	wb := NewWorker(optsB)
	if err := wb.Run(ctx); err != nil {
		t.Fatalf("worker B: %v", err)
	}
	if wb.UnitsDone() != 3 {
		t.Fatalf("worker B settled %d units, want 3", wb.UnitsDone())
	}

	// Phase 2: torn coordinator restart. Persist, kill, recover.
	c1.SaveState()
	srv1.Close()
	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 2, LeaseTTL: time.Second})
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	st2, err := c2.Status(st.ID)
	if err != nil {
		t.Fatalf("restarted coordinator lost the job: %v", err)
	}
	if st2.DoneChunks != 6 || st2.State.Terminal() {
		t.Fatalf("restored status = %+v, want 6 done chunks, in flight", st2)
	}

	// Phase 3: worker A finishes the job through injected faults.
	faultyA := chaos.New(nil, chaos.Options{
		DropEvery:      5,
		DuplicateEvery: 3,
		DelayEvery:     4,
		Delay:          5 * time.Millisecond,
		PathPrefix:     "/v1/",
	})
	optsA := fastWorker("worker-a", srv2.URL)
	optsA.Parallel = 2
	optsA.Client = faultyA.Client()
	wa := NewWorker(optsA)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wa.Run(ctx) //nolint:errcheck
	}()

	faultyC := chaos.New(nil, chaos.Options{DuplicateEvery: 2, PathPrefix: "/v1/"})
	cl := NewClient(srv2.URL, faultyC.Client())
	cl.PollInterval = 10 * time.Millisecond
	rep, err := cl.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("chaos-run Report differs from local RunCampaign")
	}
	b, err := NewClient(srv2.URL, nil).CheckpointBytes(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(localBytes) {
		t.Fatal("chaos-run checkpoint bytes differ from local checkpoint file")
	}

	// The faults must actually have fired for this to prove anything.
	stats := faultyA.Stats()
	if stats.Drops == 0 || stats.Duplicates == 0 || stats.Delays == 0 {
		t.Fatalf("chaos schedule did not fire: %+v", stats)
	}
	if faultyC.Stats().Duplicates == 0 {
		t.Fatalf("client chaos schedule did not fire: %+v", faultyC.Stats())
	}
}

// TestClientSurvivesAmnesiacRestart pins the 404-resubmit path: when the
// coordinator behind a client's address is replaced, while the client is
// polling, by one with NO persisted state, the client notices the unknown
// job and resubmits the spec — same hash, same job, same bytes — rather
// than failing or forking. One front server keeps the address fixed, as a
// coordinator restarted on the same port does.
func TestClientSurvivesAmnesiacRestart(t *testing.T) {
	spec := testSpec()
	localRep, _ := localRun(t, spec)

	first := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4}).Handler()
	amnesiac := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4}).Handler()
	var coord atomic.Pointer[http.Handler]
	coord.Store(&first)
	swapped := make(chan struct{})
	var polls, submits atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*coord.Load()).ServeHTTP(w, r)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			submits.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && polls.Add(1) == 1:
			// The client is polling a job no worker has touched:
			// restart the coordinator without its memory.
			coord.Store(&amnesiac)
			close(swapped)
		}
	}))
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The worker joins only after the restart, so the first coordinator
	// never sees the job run.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-swapped:
			NewWorker(fastWorker("w", front.URL)).Run(ctx) //nolint:errcheck
		case <-ctx.Done():
		}
	}()

	cl := NewClient(front.URL, nil)
	cl.PollInterval = 10 * time.Millisecond
	cl.BackoffMin = 2 * time.Millisecond
	rep, err := cl.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("post-amnesia Report differs from local RunCampaign")
	}
	if n := submits.Load(); n != 2 {
		t.Fatalf("client submitted %d times, want 2 (the spec, then its resubmission after the 404)", n)
	}
	cancel()
	wg.Wait()
}
