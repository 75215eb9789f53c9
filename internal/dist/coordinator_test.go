package dist

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xedsim/internal/chunkrun"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// testSpec is a small campaign spanning enough chunks to shard meaningfully
// (635 chunks, the last one short → ten units, nine of 64 chunks and one
// of 59).
func testSpec() *JobSpec {
	cfg := faultsim.DefaultConfig()
	cfg.LifetimeHours = 2 * faultsim.HoursPerYear
	return &JobSpec{
		Config:  cfg,
		Schemes: []string{"ECC-DIMM (SECDED)", "XED"},
		Trials:  635*faultsim.DefaultChunkSize - 1000,
		Seed:    99,
	}
}

// oneUnitSpec is testSpec cut to one work unit (40 chunks).
func oneUnitSpec() *JobSpec {
	spec := testSpec()
	spec.Trials = 40*faultsim.DefaultChunkSize - 1000
	return spec
}

// localRun evaluates a spec with plain RunCampaign and returns the Report
// plus the checkpoint bytes a local run leaves behind.
func localRun(t *testing.T, spec *JobSpec) (*faultsim.Report, []byte) {
	t.Helper()
	schemes, err := spec.ResolveSchemes()
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.CampaignOptions()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "local.ckpt")
	rep, err := faultsim.RunCampaign(context.Background(), spec.Config, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return rep, b
}

func newTestCoordinator(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drainJob plays a one-worker coordinator loop in-process: lease, compute,
// complete, until no work remains.
func drainJob(t *testing.T, c *Coordinator) {
	t.Helper()
	runners := map[string]*faultsim.ChunkRunner{}
	for {
		lease, err := c.Lease(context.Background(), "test-worker", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			return
		}
		r, ok := runners[lease.JobID]
		if !ok {
			schemes, err := lease.Spec.ResolveSchemes()
			if err != nil {
				t.Fatal(err)
			}
			if r, err = faultsim.NewChunkRunner(lease.Spec.Config, schemes, lease.Spec.CampaignOptions()); err != nil {
				t.Fatal(err)
			}
			runners[lease.JobID] = r
		}
		res, err := r.RunSpan(context.Background(), lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Complete(CompleteRequest{
			WorkerID: "test-worker", JobID: lease.JobID, Unit: lease.Unit, Token: lease.Token, Result: *res,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoordinatorMatchesLocal is the service's core promise: a job sharded
// into leased units and merged by the coordinator yields a Report and
// checkpoint bytes identical to a single-process RunCampaign, and an
// identical resubmission is served from the completed-result cache.
func TestCoordinatorMatchesLocal(t *testing.T) {
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c := newTestCoordinator(t, CoordinatorOptions{})
	st, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Cached {
		t.Fatalf("fresh submit: state=%s cached=%v", st.State, st.Cached)
	}
	drainJob(t, c)

	st, err = c.Status(context.Background(), st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.DoneChunks != st.TotalChunks {
		t.Fatalf("after drain: %+v", st)
	}
	rep, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("coordinator Report differs from local RunCampaign")
	}
	b, err := c.CheckpointBytes(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(localBytes) {
		t.Fatal("coordinator checkpoint bytes differ from local checkpoint file")
	}

	// Identical resubmission: served from cache, no new work.
	st2, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != JobDone || st2.ID != st.ID {
		t.Fatalf("resubmit: %+v", st2)
	}
	if lease, _ := c.Lease(context.Background(), "w", 0); lease != nil {
		t.Fatal("cached job produced work")
	}
}

// TestSubmitRefusesUnknownFields: a job spec is exactly the campaign's
// identity, so POST /v1/jobs refuses, with 400 and no job admitted, a spec
// that names a field the coordinator does not know — the chunk size and
// error budget older clients could set, or the engine and generation modes
// of older still — rather than run a different campaign than the client
// named. The spec without them is admitted as the campaign it names.
func TestSubmitRefusesUnknownFields(t *testing.T) {
	spec := testSpec()
	c := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	post := func(body string) (int, JobStatus) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck // an error body decodes to a zero status
		return resp.StatusCode, st
	}

	for _, field := range []string{`"chunk_size":512`, `"chunk_size":4096`, `"error_budget":3`, `"engine":"indexed","gen":"scalar"`} {
		body := strings.Replace(mustSpecJSON(t, spec), `"trials"`, field+`,"trials"`, 1)
		if code, _ := post(body); code != http.StatusBadRequest {
			t.Fatalf("spec naming %s: HTTP %d, want 400", field, code)
		}
	}
	if lease, _ := c.Lease(context.Background(), "w", 0); lease != nil {
		t.Fatal("a refused spec was admitted")
	}

	code, st := post(mustSpecJSON(t, spec))
	if code != http.StatusAccepted {
		t.Fatalf("spec submit: HTTP %d", code)
	}
	if direct, err := c.Submit(*spec); err != nil || direct.ID != st.ID {
		t.Fatalf("the posted spec is job %.12s, the same spec submitted directly %.12s (%v)", st.ID, direct.ID, err)
	}
}

// TestQueueBackpressure pins the bounded queue: beyond queueDepth active
// jobs, submissions fail with ErrQueueFull — and over HTTP, 429 with a
// Retry-After header.
func TestQueueBackpressure(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	a := testSpec()
	for i := range queueDepth {
		s := testSpec()
		s.Seed += uint64(i)
		if _, err := c.Submit(*s); err != nil {
			t.Fatal(err)
		}
	}
	b := testSpec()
	b.Seed += queueDepth
	if _, err := c.Submit(*b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the queue depth: err = %v, want ErrQueueFull", err)
	}
	// Resubmitting the admitted job is not a new admission.
	if _, err := c.Submit(*a); err != nil {
		t.Fatalf("idempotent resubmit err = %v", err)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(mustSpecJSON(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func mustSpecJSON(t *testing.T, s *JobSpec) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitRejectsInvalidSpecs pins validation-before-admission.
func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	cases := map[string]func(*JobSpec){
		"no trials":       func(s *JobSpec) { s.Trials = 0 },
		"no schemes":      func(s *JobSpec) { s.Schemes = nil },
		"unknown scheme":  func(s *JobSpec) { s.Schemes = []string{"TMR"} },
		"repeated scheme": func(s *JobSpec) { s.Schemes = []string{"XED", "XED"} },
	}
	for name, mut := range cases {
		s := testSpec()
		mut(s)
		if _, err := c.Submit(*s); err == nil {
			t.Errorf("%s: invalid spec admitted", name)
		}
	}
}

// TestSubmitRefusesHugeTrials: a spec past chunkrun.MaxItems trials is
// answered 400, not with a handler panic that drops the connection (which
// the Client would retry until its context ended), and the coordinator
// keeps serving.
func TestSubmitRefusesHugeTrials(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := NewClient(srv.URL, nil)
	for _, trials := range []int{chunkrun.MaxItems + 1, math.MaxInt64} {
		spec := testSpec()
		spec.Trials = trials
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(mustSpecJSON(t, spec)))
		if err != nil {
			t.Fatalf("%d trials: %v", trials, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%d trials: HTTP %d, want 400", trials, resp.StatusCode)
		}
		if _, err := cl.Submit(ctx, spec); err == nil || ctx.Err() != nil {
			t.Fatalf("Client.Submit of %d trials: %v, context %v", trials, err, ctx.Err())
		}
	}
	if _, err := cl.Submit(ctx, testSpec()); err != nil {
		t.Fatalf("a valid spec after the refusals: %v", err)
	}
}

// TestLeaseExpiryAndHeartbeat pins the lease lifecycle against a fake
// clock: a lease past its deadline is re-granted with a fresh token, while
// one within its deadline is not.
func TestLeaseExpiryAndHeartbeat(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: 10 * time.Second})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	if _, err := c.Submit(*testSpec()); err != nil {
		t.Fatal(err)
	}
	lease := func(worker string) *Lease {
		t.Helper()
		l, err := c.Lease(context.Background(), worker, 0)
		if err != nil || l == nil {
			t.Fatalf("lease: %v %v", l, err)
		}
		return l
	}

	l1 := lease("w1")
	// Within TTL the unit is reserved: the next lease is a different unit.
	now = now.Add(5 * time.Second)
	l2 := lease("w2")
	if l2.Unit == l1.Unit {
		t.Fatalf("second lease = %+v, want a different unit", l2)
	}

	// Past l1's deadline and within l2's: l1's unit is re-granted with a
	// new token, and l2's is not.
	now = now.Add(6 * time.Second)
	next := lease("w3")
	if next.Unit != l1.Unit || next.Token == l1.Token {
		t.Fatalf("re-grant = %+v, want unit %d under a new token", next, l1.Unit)
	}
	if again := lease("w4"); again.Unit == l2.Unit {
		t.Fatalf("lease within l2's deadline = %+v, re-granted l2's unit", again)
	}
}

// TestLeaseExpiresOnlyOnRegrant: a lease past its deadline is not counted
// expired until Lease re-grants its unit, and the re-grant counts exactly
// one expiry.
func TestLeaseExpiresOnlyOnRegrant(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: 10 * time.Second, Metrics: reg})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	if _, err := c.Submit(*testSpec()); err != nil {
		t.Fatal(err)
	}
	l1, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || l1 == nil {
		t.Fatalf("lease: %v %v", l1, err)
	}
	expired := func() uint64 { return reg.Snapshot().Counters["dist.leases_expired"] }

	now = now.Add(11 * time.Second)
	if n := expired(); n != 0 {
		t.Fatalf("dist.leases_expired = %d before any re-grant, want 0", n)
	}
	next, _ := c.Lease(context.Background(), "w2", 0)
	if next == nil || next.Unit != l1.Unit || next.Token == l1.Token {
		t.Fatalf("re-grant = %+v, want unit %d under a new token", next, l1.Unit)
	}
	if n := expired(); n != 1 {
		t.Fatalf("dist.leases_expired = %d after one re-grant, want 1", n)
	}
	if other, _ := c.Lease(context.Background(), "w3", 0); other == nil || other.Unit == l1.Unit {
		t.Fatalf("next lease = %+v, want a fresh unit", other)
	}
	if n := expired(); n != 1 {
		t.Fatalf("dist.leases_expired = %d after a fresh grant, want 1", n)
	}
}

// TestCompleteDuplicateAndLateResults pins at-most-once merging at the
// coordinator layer: a unit delivered twice (retried POST, or a straggler
// racing a re-dispatch) merges once and is acknowledged as duplicate the
// second time.
func TestCompleteDuplicateAndLateResults(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{Metrics: reg})
	spec := testSpec()
	if _, err := c.Submit(*spec); err != nil {
		t.Fatal(err)
	}
	lease, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || lease == nil {
		t.Fatal("no lease")
	}
	schemes, _ := spec.ResolveSchemes()
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSpan(context.Background(), lease.Lo, lease.Hi)
	if err != nil {
		t.Fatal(err)
	}
	req := CompleteRequest{WorkerID: "w1", JobID: lease.JobID, Unit: lease.Unit, Token: lease.Token, Result: *res}
	first, err := c.Complete(req)
	if err != nil || !first.Merged {
		t.Fatalf("first complete = %+v, %v", first, err)
	}
	second, err := c.Complete(req)
	if err != nil || second.Merged || !second.Duplicate {
		t.Fatalf("second complete = %+v, %v", second, err)
	}
	st, _ := c.Status(context.Background(), lease.JobID, 0)
	if st.DoneChunks != lease.Hi-lease.Lo {
		t.Fatalf("DoneChunks = %d after duplicate, want %d", st.DoneChunks, lease.Hi-lease.Lo)
	}
	if n := reg.Snapshot().Counters["dist.merges_duplicate"]; n != 1 {
		t.Fatalf("dist.merges_duplicate = %d, want 1", n)
	}

	// A corrupted envelope for a not-yet-merged unit is rejected and
	// merges nothing.
	lease2, err := c.Lease(context.Background(), "w2", 0)
	if err != nil || lease2 == nil {
		t.Fatal("no second lease")
	}
	res2, err := r.RunSpan(context.Background(), lease2.Lo, lease2.Hi)
	if err != nil {
		t.Fatal(err)
	}
	bad := CompleteRequest{JobID: lease2.JobID, Unit: lease2.Unit, Token: lease2.Token, Result: *res2}
	bad.Result.Trials++
	if _, err := c.Complete(bad); err == nil {
		t.Fatal("corrupted envelope accepted")
	}
	if st, _ := c.Status(context.Background(), lease2.JobID, 0); st.DoneChunks != lease.Hi-lease.Lo {
		t.Fatal("rejected envelope advanced the accumulator")
	}
}

// TestLedgerRecovery pins the torn-restart path: a coordinator killed with
// a half-merged job comes back (same state dir) knowing no job, resumes
// that job from its checkpoint when the client resubmits it, serves only
// the unmerged units again, and finishes with bytes identical to a local
// run — including progress merged after the last persist, which is simply
// recomputed.
func TestLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st, err := c1.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	schemes, _ := spec.ResolveSchemes()
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Merge three units, persist after the second: the third merge is
	// "lost" by the crash and must be recomputed.
	for i := 0; i < 3; i++ {
		lease, err := c1.Lease(context.Background(), "w", 0)
		if err != nil || lease == nil {
			t.Fatal("no lease")
		}
		res, err := r.RunSpan(context.Background(), lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Complete(CompleteRequest{JobID: lease.JobID, Unit: lease.Unit, Token: lease.Token, Result: *res}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			c1.SaveState()
		}
	}
	// c1 is abandoned here without SaveState: a hard kill.

	reg := obs.NewRegistry()
	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, Metrics: reg})
	if _, err := c2.Status(context.Background(), st.ID, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("restarted coordinator's status before the resubmission: err %v, want ErrUnknownJob", err)
	}
	st2, err := c2.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.State.Terminal() || st2.Cached {
		t.Fatalf("resubmission to the restarted coordinator = %+v", st2)
	}
	if st2.DoneChunks != 2*unitChunks {
		t.Fatalf("restored DoneChunks = %d, want %d (two persisted units)", st2.DoneChunks, 2*unitChunks)
	}
	drainJob(t, c2)
	rep, err := c2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("post-restart Report differs from local RunCampaign")
	}
	b, err := c2.CheckpointBytes(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(localBytes) {
		t.Fatal("post-restart checkpoint bytes differ from local checkpoint")
	}
	// The restored units were not recomputed.
	snap := reg.Snapshot().Counters
	if n := snap["dist.chunks_merged"]; n != 635-2*unitChunks {
		t.Fatalf("restarted coordinator merged %d chunks, want the %d not persisted", n, 635-2*unitChunks)
	}
	if n := snap["dist.jobs_resumed"]; n != 1 {
		t.Fatalf("dist.jobs_resumed = %d, want 1", n)
	}

	// A third incarnation sees the job terminal and cache-serves it.
	c3 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st3, err := c3.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != JobDone || !st3.Cached {
		t.Fatalf("third incarnation: %+v", st3)
	}
	if b3, _ := c3.CheckpointBytes(st.ID); string(b3) != string(localBytes) {
		t.Fatal("cache-served checkpoint differs")
	}
}

// TestRecoveryRecomputesRefusedJobCheckpoint: a job checkpoint whose hash
// is valid but whose payload does not fit the campaign (scheme 1 cut to
// one year bucket) is refused whole at restart, so the job recomputes
// from zero and still ends with the local run's result.
func TestRecoveryRecomputesRefusedJobCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st, err := c1.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	schemes, _ := spec.ResolveSchemes()
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // 512 of 635 chunks
		lease, err := c1.Lease(context.Background(), "w", 0)
		if err != nil || lease == nil {
			t.Fatal("no lease")
		}
		res, err := r.RunSpan(context.Background(), lease.Lo, lease.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Complete(CompleteRequest{JobID: lease.JobID, Unit: lease.Unit, Token: lease.Token, Result: *res}); err != nil {
			t.Fatal(err)
		}
	}
	c1.SaveState()

	path := filepath.Join(dir, "job-"+st.ID+".ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Magic      string         `json:"magic"`
		Kind       string         `json:"kind"`
		Version    int            `json:"version"`
		ConfigHash string         `json:"config_hash"`
		Payload    map[string]any `json:"payload"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber() // the done bitmap's words do not fit a float64
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	if done := env.Payload["done_trials"].(json.Number).String(); done != "2097152" {
		t.Fatalf("saved job holds %s trials, want 512 chunks of 4096", done)
	}
	scheme1 := env.Payload["results"].([]any)[1].(map[string]any)
	scheme1["by_year"] = scheme1["by_year"].([]any)[:1]
	if raw, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st2, err := c2.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DoneChunks != 0 {
		t.Fatalf("restored DoneChunks = %d from a refused checkpoint, want 0", st2.DoneChunks)
	}
	drainJob(t, c2)
	rep, err := c2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatalf("recomputed job differs from local RunCampaign:\n%+v\nwant\n%+v", rep.Results, localRep.Results)
	}
	if b, err := c2.CheckpointBytes(st.ID); err != nil || string(b) != string(localBytes) {
		t.Fatalf("recomputed job's checkpoint differs from the local one (err %v)", err)
	}
}

// TestDrainRefusesWork pins graceful shutdown: a draining coordinator
// refuses submissions and leases (503 semantics) and reports not-ready.
func TestDrainRefusesWork(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	if _, err := c.Submit(*testSpec()); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if _, err := c.Lease(context.Background(), "w", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("lease while draining err = %v", err)
	}
	s := testSpec()
	s.Seed++
	if _, err := c.Submit(*s); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining err = %v", err)
	}
	if err := c.Ready(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ready while draining = %v", err)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d", resp.StatusCode)
	}
}

// failBudget fails spec's job on c with fabricated voided trials from
// two units, each within faultsim.DefaultErrorBudget but over it
// together. spec must be one XED scheme over two units.
func failBudget(t *testing.T, c *Coordinator, spec *JobSpec) JobStatus {
	t.Helper()
	st, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	mkRes := func(l *Lease) faultsim.ChunkResult {
		res := faultsim.ChunkResult{
			Lo: l.Lo, Hi: l.Hi,
			Trials:  uint64((l.Hi-l.Lo)*faultsim.DefaultChunkSize - failPerUnit),
			Tallies: []faultsim.SchemeTally{{ByYear: make([]uint64, 2)}},
		}
		for i := 0; i < failPerUnit; i++ {
			res.Errors = append(res.Errors, faultsim.TrialError{
				Trial: l.Lo*faultsim.DefaultChunkSize + i, Chunk: l.Lo, RNGState: [4]uint64{1, 2, 3, 4}, PanicValue: "boom",
			})
		}
		return res
	}
	l1, _ := c.Lease(context.Background(), "w", 0)
	if _, err := c.Complete(CompleteRequest{JobID: st.ID, Unit: l1.Unit, Token: l1.Token, Result: mkRes(l1)}); err != nil {
		t.Fatal(err)
	}
	l2, _ := c.Lease(context.Background(), "w", 0)
	resp, err := c.Complete(CompleteRequest{JobID: st.ID, Unit: l2.Unit, Token: l2.Token, Result: mkRes(l2)})
	if err != nil || !resp.JobDone {
		t.Fatalf("budget-tripping complete = %+v, %v", resp, err)
	}
	return st
}

const failPerUnit = faultsim.DefaultErrorBudget * 3 / 5

func budgetSpec() *JobSpec {
	spec := testSpec()
	spec.Schemes = []string{"XED"}
	spec.Trials = 2 * unitChunks * faultsim.DefaultChunkSize
	return spec
}

// checkFailed checks that job id is failed by the error budget on c, and
// that c serves no result and no work for it.
func checkFailed(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	st, err := c.Status(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "budget") || st.TrialErrors != 2*failPerUnit {
		t.Fatalf("failed job status = %+v", st)
	}
	if _, err := c.Result(id); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Result of failed job err = %v", err)
	}
	if lease, _ := c.Lease(context.Background(), "w", 0); lease != nil {
		t.Fatal("failed job produced work")
	}
}

// TestErrorBudgetFailsJob pins cross-worker budget aggregation at the
// service layer: voided trials from two units, each within the budget but
// over it together, trip the job into the failed state, which the status
// and result paths surface.
func TestErrorBudgetFailsJob(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	st := failBudget(t, c, budgetSpec())
	checkFailed(t, c, st.ID)
}

// TestFailedJobRestoresFailed: a restarted coordinator re-derives a failed
// job from its checkpoint alone (its trial errors exceed the budget), so
// the resubmission is answered failed, with the budget error, and runs
// nothing.
func TestFailedJobRestoresFailed(t *testing.T) {
	dir := t.TempDir()
	spec := budgetSpec()
	st := failBudget(t, newTestCoordinator(t, CoordinatorOptions{StateDir: dir}), spec)

	c := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st2, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.State != JobFailed || st2.Cached {
		t.Fatalf("resubmitted failed job = %+v", st2)
	}
	checkFailed(t, c, st.ID)
}

// TestHeldRequestEndsWithContext: a held status or lease request returns
// with its context's error when the context ends, long before its wait.
func TestHeldRequestEndsWithContext(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	st, err := c.Submit(*oneUnitSpec())
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Lease(context.Background(), "w", 0); l == nil { // the job's one unit
		t.Fatal("no lease")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Status(ctx, st.ID, MaxWait); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held status: err %v, want the context's", err)
	}
	if _, err := c.Lease(ctx, "w", MaxWait); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held lease: err %v, want the context's", err)
	}
	if d := time.Since(start); d > MaxWait/6 {
		t.Fatalf("held requests returned %v after a 50ms context", d)
	}
}

// TestResultReadsStateUnderLock: Result and CheckpointBytes, called while
// the job they name runs, read its state under the coordinator's lock, so
// go test -race finds no race with the lease and merge paths that write
// it.
func TestResultReadsStateUnderLock(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{})
	st, err := c.Submit(*testSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c.CheckpointBytes(st.ID) //nolint:errcheck // not done yet, mostly
			if _, err := c.Result(st.ID); err == nil {
				return
			}
		}
	}()
	drainJob(t, c)
	<-done
}

// TestPerJobCostIsFlat: with a state dir, one job's round (submit, lease,
// complete, status) allocates about as much after 300 finished jobs as
// after 10: what a job saves does not grow with the number of jobs the
// coordinator has held.
func TestPerJobCostIsFlat(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{StateDir: t.TempDir()})
	ctx := context.Background()
	var ms runtime.MemStats
	seed := uint64(0)
	round := func() uint64 {
		t.Helper()
		seed++
		spec := testSpec()
		spec.Schemes, spec.Trials, spec.Seed = []string{"XED"}, faultsim.DefaultChunkSize, seed
		res := faultsim.ChunkResult{Lo: 0, Hi: 1, Trials: faultsim.DefaultChunkSize,
			Tallies: []faultsim.SchemeTally{{ByYear: make([]uint64, 2)}}}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		st, err := c.Submit(*spec)
		if err != nil {
			t.Fatal(err)
		}
		l, err := c.Lease(ctx, "w", 0)
		if err != nil || l == nil {
			t.Fatalf("lease: %v %v", l, err)
		}
		if _, err := c.Complete(CompleteRequest{JobID: l.JobID, Unit: l.Unit, Token: l.Token, Result: res}); err != nil {
			t.Fatal(err)
		}
		if st, err = c.Status(ctx, st.ID, 0); err != nil || st.State != JobDone {
			t.Fatalf("status %+v, %v", st, err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	// cost runs rounds until jobs have finished, then returns the median
	// of five more.
	cost := func(jobs uint64) uint64 {
		for seed < jobs {
			round()
		}
		b := make([]uint64, 5)
		for i := range b {
			b[i] = round()
		}
		slices.Sort(b)
		return b[2]
	}
	at10, at300 := cost(10), cost(300)
	t.Logf("bytes allocated per job round: %d after 10 jobs, %d after 300", at10, at300)
	if at300 > 2*at10 {
		t.Fatalf("a job round allocates %d bytes after 300 jobs, %d after 10: per-job cost grows with the job count", at300, at10)
	}
}

// TestFailedSaveIsRetriedAndNotReady: a job checkpoint save that fails is
// counted in dist.job_save_failures, /readyz answers 503 while it stands,
// and the next SaveState (the persist tick's) retries it.
func TestFailedSaveIsRetriedAndNotReady(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, Metrics: reg})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ready := func() int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A regular file where the state dir was makes every save fail, even
	// for root.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(*testSpec())
	if err != nil {
		t.Fatal(err)
	}
	drainJob(t, c) // the job finishes, and its final save fails
	if n := reg.Snapshot().Counters["dist.job_save_failures"]; n != 1 {
		t.Fatalf("dist.job_save_failures = %d after one failed save, want 1", n)
	}
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a failed save = %d, want 503", code)
	}

	// Restore the dir: the next save succeeds, and /readyz recovers.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c.SaveState()
	if code := ready(); code != http.StatusOK {
		t.Fatalf("/readyz after the retried save = %d, want 200", code)
	}
	want, err := c.CheckpointBytes(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "job-"+st.ID+".ckpt")); err != nil || string(got) != string(want) {
		t.Fatalf("the retried save left %d bytes (%v), want the job's %d", len(got), err, len(want))
	}
}

// TestRestoreAcrossUnitSizes: a job checkpoint whose merged chunks
// part-cover a unit, as one saved by a coordinator that leased other spans
// leaves, is dropped on resubmission rather than left with a unit no
// result can complete; the job recomputes and ends with the local run's
// bytes.
func TestRestoreAcrossUnitSizes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	schemes, _ := spec.ResolveSchemes()
	m, err := faultsim.NewMerger(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSpan(context.Background(), 0, unitChunks+unitChunks/2) // half of the second unit
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(res); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(filepath.Join(dir, "job-"+m.Hash()+".ckpt")); err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	st, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != m.Hash() || st.DoneChunks != 0 {
		t.Fatalf("resubmitted job %.12s restored DoneChunks = %d from a part-covering checkpoint, want job %.12s with 0", st.ID, st.DoneChunks, m.Hash())
	}
	drainJob(t, c)
	rep, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, localRep) {
		t.Fatal("recomputed job differs from local RunCampaign")
	}
	if b, err := c.CheckpointBytes(st.ID); err != nil || string(b) != string(localBytes) {
		t.Fatalf("recomputed job's checkpoint differs from the local one (err %v)", err)
	}
}

// TestFinishedJobsLeaveDispatch: a job that finishes or fails leaves the
// dispatch order and drops its units, and one restored terminal never
// enters it, so the lease scan and the queue count cover only unfinished
// jobs however many a coordinator has held. A late completion to a
// finished job is acknowledged as a duplicate.
func TestFinishedJobsLeaveDispatch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, Metrics: reg})
	var specs []*JobSpec
	for seed := uint64(1); seed <= 3; seed++ {
		spec := oneUnitSpec()
		spec.Seed = seed
		specs = append(specs, spec)
		if _, err := c.Submit(*spec); err != nil {
			t.Fatal(err)
		}
		drainJob(t, c)
	}
	failed := budgetSpec()
	failBudget(t, c, failed)
	specs = append(specs, failed)
	checkRetired := func(c *Coordinator) {
		t.Helper()
		if len(c.order) != 0 {
			t.Fatalf("%d terminal jobs still in the dispatch order", len(c.order))
		}
		for id, j := range c.jobs {
			if !j.state.Terminal() || j.units != nil {
				t.Fatalf("job %.12s is %s with %d units, want terminal with none", id, j.state, len(j.units))
			}
		}
		if len(c.jobs) != len(specs) {
			t.Fatalf("coordinator holds %d jobs, want %d", len(c.jobs), len(specs))
		}
	}
	checkRetired(c)

	spec := specs[0]
	schemes, _ := spec.ResolveSchemes()
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSpan(context.Background(), 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Complete(CompleteRequest{WorkerID: "late", JobID: mustHash(t, spec), Unit: 0, Result: *res})
	if err != nil || resp.Merged || !resp.Duplicate || !resp.JobDone {
		t.Fatalf("late completion to a finished job = %+v, %v; want a duplicate", resp, err)
	}
	if n := reg.Snapshot().Counters["dist.merges_duplicate"]; n != 1 {
		t.Fatalf("dist.merges_duplicate = %d, want the late completion's 1", n)
	}

	restarted := newTestCoordinator(t, CoordinatorOptions{StateDir: dir})
	for _, spec := range specs {
		if st, err := restarted.Submit(*spec); err != nil || !st.State.Terminal() {
			t.Fatalf("resubmission to a restarted coordinator = %+v, %v; want terminal", st, err)
		}
	}
	checkRetired(restarted)
}
