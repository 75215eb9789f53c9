package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xedsim/internal/dist/chaos"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// TestWorkersEndToEnd runs the whole service in-process over real HTTP:
// two parallel workers drain a job submitted through the Client, and the
// result is bit-identical to a local RunCampaign.
func TestWorkersEndToEnd(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		w := NewWorker(WorkerOptions{ID: id, Coordinator: srv.URL})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck
		}()
	}

	cl := NewClient(srv.URL, nil)
	rep, err := cl.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("service Report differs from local RunCampaign")
	}
	st, err := cl.Status(ctx, mustHash(t, spec), 0)
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
	c := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	opts := WorkerOptions{ID: "w", Coordinator: srv.URL, Parallel: 2}
	w := NewWorker(opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck
	}()

	cl := NewClient(srv.URL, nil)
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
	ra, err := cache.get(leaseA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := cache.get(leaseA, 2); again != ra {
		t.Fatal("a second lease of the same job rebuilt its runner")
	}
	rb, err := cache.get(leaseB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rb == ra || cache.r != rb || cache.jobID != leaseB.JobID {
		t.Fatal("the cache kept the previous job's runner")
	}
	bad := &Lease{JobID: "bad", Spec: JobSpec{Schemes: []string{"TMR"}, Trials: 1}}
	if _, err := cache.get(bad, 2); err == nil || cache.r != nil {
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
//  1. Worker B (no faults, in-process) completes exactly 3 units, then
//     crash-stops.
//  2. The coordinator persists and is torn down mid-job; a second
//     incarnation starts on the same state dir knowing no job.
//  3. The client resubmits, and the second incarnation resumes the job
//     from its checkpoint. Worker A finishes it through a chaos transport
//     that drops responses, duplicates deliveries and injects delays on
//     its held lease requests (a dropped or duplicated grant strands its
//     unit until the lease TTL) and on its completions (forcing retries
//     of possibly-merged units); the client's held status requests run
//     through a duplicating transport of their own.
//
// After all that, the Report and the canonical checkpoint bytes must equal
// a single-process RunCampaign's, byte for byte.
func TestChaosBitIdentical(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)
	dir := t.TempDir()

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, LeaseTTL: time.Second})
	st, err := c1.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: worker B merges 3 units and dies.
	schemes, _ := spec.ResolveSchemes()
	rb, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		lease, err := c1.Lease(ctx, "worker-b", 0)
		if err != nil || lease == nil {
			t.Fatalf("worker B's lease: %v %v", lease, err)
		}
		res, err := rb.RunSpan(ctx, lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c1.Complete(CompleteRequest{WorkerID: "worker-b", JobID: lease.JobID, Unit: lease.Unit, Token: lease.Token, Result: *res})
		if err != nil || !resp.Merged {
			t.Fatalf("worker B's completion = %+v, %v", resp, err)
		}
	}

	// Phase 2: torn coordinator restart. Persist, kill, start afresh.
	c1.SaveState()
	reg := obs.NewRegistry()
	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, LeaseTTL: time.Second, Metrics: reg})
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	if _, err := c2.Status(ctx, st.ID, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("restarted coordinator knows the job before its resubmission: %v", err)
	}

	// Phase 3: the client resubmits; worker A finishes the job through
	// injected faults.
	faultyLease := chaos.New(nil, chaos.Options{
		DropEvery:      5,
		DuplicateEvery: 3,
		DelayEvery:     4,
		Delay:          5 * time.Millisecond,
		PathPrefix:     "/v1/lease",
	})
	faultyA := chaos.New(faultyLease, chaos.Options{
		DropEvery:      5,
		DuplicateEvery: 3,
		DelayEvery:     4,
		Delay:          5 * time.Millisecond,
		PathPrefix:     "/v1/complete",
	})
	wa := NewWorker(WorkerOptions{ID: "worker-a", Coordinator: srv2.URL, Parallel: 2, Client: faultyA.Client()})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wa.Run(ctx) //nolint:errcheck
	}()

	// Every second client request is duplicated, starting with the second:
	// its first held status request.
	faultyC := chaos.New(nil, chaos.Options{DuplicateEvery: 2, PathPrefix: "/v1/"})
	cl := NewClient(srv2.URL, faultyC.Client())
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
	// The resubmission resumed the 3 persisted units rather than
	// recomputing them.
	if n := reg.Snapshot().Counters["dist.chunks_merged"]; n != 635-3*unitChunks {
		t.Fatalf("restarted coordinator merged %d chunks, want the %d not persisted", n, 635-3*unitChunks)
	}

	// The faults must actually have fired for this to prove anything.
	for name, tr := range map[string]*chaos.Transport{"lease": faultyLease, "complete": faultyA} {
		if stats := tr.Stats(); stats.Drops == 0 || stats.Duplicates == 0 || stats.Delays == 0 {
			t.Fatalf("%s chaos schedule did not fire: %+v", name, stats)
		}
	}
	if faultyC.Stats().Duplicates == 0 {
		t.Fatalf("client chaos schedule did not fire: %+v", faultyC.Stats())
	}
}

// TestClientSurvivesAmnesiacRestart pins the 404-resubmit path: when the
// coordinator behind a client's address is replaced, while the client is
// waiting, by one with NO persisted state, the client notices the unknown
// job and resubmits the spec — same hash, same job, same bytes — rather
// than failing or forking. One front server keeps the address fixed, as a
// coordinator restarted on the same port does.
func TestClientSurvivesAmnesiacRestart(t *testing.T) {
	spec := testSpec()
	localRep, _ := localRun(t, spec)

	first := newTestCoordinator(t, CoordinatorOptions{}).Handler()
	amnesiac := newTestCoordinator(t, CoordinatorOptions{}).Handler()
	var coord atomic.Pointer[http.Handler]
	coord.Store(&first)
	swapped := make(chan struct{})
	var statuses, submits atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			submits.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && statuses.Add(1) == 1:
			// The client waits on a job no worker has touched: restart
			// the coordinator without its memory before the request,
			// which the first coordinator would hold, reaches it.
			coord.Store(&amnesiac)
			close(swapped)
		}
		(*coord.Load()).ServeHTTP(w, r)
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
			NewWorker(WorkerOptions{ID: "w", Coordinator: front.URL}).Run(ctx) //nolint:errcheck
		case <-ctx.Done():
		}
	}()

	rep, err := NewClient(front.URL, nil).RunCampaign(ctx, spec)
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

// heldServer serves c's handler and counts the requests that reach it, so
// a test can tell when its held requests have arrived.
func heldServer(c *Coordinator) (*httptest.Server, *atomic.Int32) {
	var arrived atomic.Int32
	h := c.Handler()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		h.ServeHTTP(w, r)
	})), &arrived
}

// waitArrived waits until n requests have reached the server, then a
// little longer, so that they are held at the coordinator.
func waitArrived(t *testing.T, arrived *atomic.Int32, n int32) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); arrived.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests arrived", arrived.Load(), n)
		}
	}
	time.Sleep(20 * time.Millisecond)
}

// TestDrainReleasesHeldRequests: a drain answers every held status and
// lease request at once with 503, not at the end of its wait, and once the
// server closes, the goroutine count is back at its baseline.
func TestDrainReleasesHeldRequests(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := newTestCoordinator(t, CoordinatorOptions{})
	st, err := c.Submit(*oneUnitSpec())
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Lease(context.Background(), "w", 0); l == nil { // the job's one unit
		t.Fatal("no lease")
	}
	srv, arrived := heldServer(c)
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}

	type answer struct {
		what string
		code int
		at   time.Time
	}
	answers := make(chan answer, 4)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := getJSON(context.Background(), hc, srv.URL, "/v1/jobs/"+st.ID+"?wait="+MaxWait.String(), &JobStatus{})
			answers <- answer{"status", code, time.Now()}
		}()
		go func() {
			req := &LeaseRequest{WorkerID: "w", WaitMillis: MaxWait.Milliseconds()}
			code, _, _ := postJSON(context.Background(), hc, srv.URL, "/v1/lease", req, &Lease{})
			answers <- answer{"lease", code, time.Now()}
		}()
	}
	waitArrived(t, arrived, 4)
	select {
	case a := <-answers:
		t.Fatalf("held %s request answered %d before the drain", a.what, a.code)
	default:
	}

	drained := time.Now()
	c.Drain()
	for i := 0; i < 4; i++ {
		select {
		case a := <-answers:
			if a.code != http.StatusServiceUnavailable {
				t.Fatalf("drained %s request answered %d, want 503", a.what, a.code)
			}
			if d := a.at.Sub(drained); d > time.Second {
				t.Fatalf("drained %s request answered %v after the drain", a.what, d)
			}
		case <-time.After(MaxWait / 2):
			t.Fatal("the drain left a held request waiting")
		}
	}

	srv.Close()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the drain and close, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestHeldHTTPRequestEndsWithClient: a held request whose client goes away
// ends its handler, so closing the server (which waits for every handler)
// does not wait out the hold.
func TestHeldHTTPRequestEndsWithClient(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	st, err := c.Submit(*oneUnitSpec())
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Lease(context.Background(), "w", 0); l == nil { // the job's one unit
		t.Fatal("no lease")
	}
	srv, arrived := heldServer(c)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2)
	go func() {
		getJSON(ctx, http.DefaultClient, srv.URL, "/v1/jobs/"+st.ID+"?wait="+MaxWait.String(), &JobStatus{}) //nolint:errcheck
		done <- struct{}{}
	}()
	go func() {
		postJSON(ctx, http.DefaultClient, srv.URL, "/v1/lease", &LeaseRequest{WorkerID: "w", WaitMillis: MaxWait.Milliseconds()}, &Lease{}) //nolint:errcheck
		done <- struct{}{}
	}()
	waitArrived(t, arrived, 2)
	cancel()
	<-done
	<-done
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > MaxWait/6 {
		t.Fatalf("closing the server took %v: a held handler outlived its client", d)
	}
}

// TestDroppedLeaseStrandsUnitUntilTTL: a held lease request whose response
// is lost (the coordinator granted the unit; nobody saw the grant) strands
// the unit only until the lease TTL. A worker's held lease request wakes at
// that deadline and takes the unit, long before its own wait would end.
func TestDroppedLeaseStrandsUnitUntilTTL(t *testing.T) {
	spec := oneUnitSpec()
	localRep, _ := localRun(t, spec)
	const ttl = 300 * time.Millisecond
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: ttl, Metrics: reg})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if _, err := c.Submit(*spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := time.Now()
	lost := chaos.New(nil, chaos.Options{DropEvery: 1, PathPrefix: "/v1/lease"})
	req := &LeaseRequest{WorkerID: "lost", WaitMillis: MaxWait.Milliseconds()}
	if _, _, err := postJSON(ctx, lost.Client(), srv.URL, "/v1/lease", req, &Lease{}); !errors.Is(err, chaos.ErrDropped) {
		t.Fatalf("the job's one unit was not granted and dropped: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewWorker(WorkerOptions{ID: "w", Coordinator: srv.URL}).Run(ctx) //nolint:errcheck
	}()
	rep, err := NewClient(srv.URL, nil).RunCampaign(ctx, spec)
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("Report differs from local RunCampaign")
	}
	if elapsed < ttl || elapsed > MaxWait/3 {
		t.Fatalf("the job took %v with a %v lease TTL and a %v wait", elapsed, ttl, MaxWait)
	}
	if n := reg.Snapshot().Counters["dist.leases_expired"]; n != 1 {
		t.Fatalf("dist.leases_expired = %d, want the dropped grant's 1", n)
	}
}

// TestWorkerLosesRaceToExpiredLease: with a 1 ms lease TTL every unit
// outlives its lease, so another worker re-grants it and computes it too.
// The slow worker, whose completions arrive 50 ms late, loses those races:
// its results are acknowledged as duplicates, and the Report and the
// checkpoint bytes still equal a local run's.
func TestWorkerLosesRaceToExpiredLease(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: time.Millisecond, Metrics: reg})
	srv, arrived := heldServer(c)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	late := chaos.New(nil, chaos.Options{DelayEvery: 1, Delay: 50 * time.Millisecond, PathPrefix: "/v1/complete"})
	slow := WorkerOptions{ID: "slow", Coordinator: srv.URL, Client: late.Client()}
	var wg sync.WaitGroup
	for _, opts := range []WorkerOptions{slow, {ID: "fast", Coordinator: srv.URL}} {
		w := NewWorker(opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck
		}()
	}
	// Both workers wait on held lease requests, so each takes a unit when
	// the job arrives.
	waitArrived(t, arrived, 2)
	cl := NewClient(srv.URL, nil)
	rep, err := cl.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CheckpointBytes(ctx, mustHash(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	// The slow worker's late completions still arrive, after the fast
	// worker merged their units.
	counters := func() map[string]uint64 { return reg.Snapshot().Counters }
	for deadline := time.Now().Add(10 * time.Second); counters()["dist.merges_duplicate"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no late completion was acknowledged as a duplicate (%d leases expired)", counters()["dist.leases_expired"])
		}
	}
	cancel()
	wg.Wait()
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("Report differs from local RunCampaign")
	}
	if string(b) != string(localBytes) {
		t.Fatal("checkpoint bytes differ from local checkpoint file")
	}
	if n := counters()["dist.leases_expired"]; n == 0 {
		t.Fatal("no lease expired under a 1 ms TTL")
	}
}
