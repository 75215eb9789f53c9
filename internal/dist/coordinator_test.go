package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// testSpec is a small campaign spanning enough chunks to shard meaningfully
// (40 chunks, the last one short → 10 four-chunk units).
func testSpec() *JobSpec {
	cfg := faultsim.DefaultConfig()
	cfg.LifetimeHours = 2 * faultsim.HoursPerYear
	return &JobSpec{
		Config:  cfg,
		Schemes: []string{"ECC-DIMM (SECDED)", "XED"},
		Trials:  40*faultsim.DefaultChunkSize - 1000,
		Seed:    99,
	}
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
		lease, err := c.Lease("test-worker")
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

	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4})
	st, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Cached {
		t.Fatalf("fresh submit: state=%s cached=%v", st.State, st.Cached)
	}
	drainJob(t, c)

	st, err = c.Status(st.ID)
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
	if lease, _ := c.Lease("w"); lease != nil {
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
	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4})
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
	if lease, _ := c.Lease("w"); lease != nil {
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

// TestQueueBackpressure pins the bounded queue: beyond QueueDepth active
// jobs, submissions fail with ErrQueueFull — and over HTTP, 429 with a
// Retry-After header.
func TestQueueBackpressure(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{QueueDepth: 1})
	a := testSpec()
	if _, err := c.Submit(*a); err != nil {
		t.Fatal(err)
	}
	b := testSpec()
	b.Seed++
	if _, err := c.Submit(*b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit err = %v, want ErrQueueFull", err)
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

// TestLeaseExpiryAndHeartbeat pins the lease lifecycle against a fake
// clock: an expired lease is re-granted (with a fresh token) while a
// heartbeated one is not, and a straggler whose lease was re-granted is
// told it lost it.
func TestLeaseExpiryAndHeartbeat(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorOptions{LeaseTTL: 10 * time.Second, UnitChunks: 4})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	if _, err := c.Submit(*testSpec()); err != nil {
		t.Fatal(err)
	}

	l1, err := c.Lease("w1")
	if err != nil || l1 == nil {
		t.Fatalf("lease: %v %v", l1, err)
	}
	// Within TTL the unit is reserved: the next lease is a different unit.
	l2, _ := c.Lease("w2")
	if l2 == nil || l2.Unit == l1.Unit {
		t.Fatalf("second lease = %+v, want different unit", l2)
	}

	// w1 heartbeats, w2 goes silent. Advance past the original deadline:
	// w1's unit stays reserved, w2's is re-granted with a new token.
	now = now.Add(8 * time.Second)
	hb := c.Heartbeat(HeartbeatRequest{WorkerID: "w1", Leases: []LeaseRef{
		{JobID: l1.JobID, Unit: l1.Unit, Token: l1.Token},
	}})
	if hb.Extended != 1 || hb.Lost != 0 {
		t.Fatalf("heartbeat = %+v", hb)
	}
	now = now.Add(4 * time.Second) // l2 expired; l1 extended to t+18s

	next, _ := c.Lease("w3")
	if next == nil || next.Unit != l2.Unit {
		t.Fatalf("re-grant = %+v, want unit %d", next, l2.Unit)
	}
	if next.Token == l2.Token {
		t.Fatal("re-granted lease reused the token")
	}
	// The straggler's heartbeat now reports the lease lost.
	hb = c.Heartbeat(HeartbeatRequest{WorkerID: "w2", Leases: []LeaseRef{
		{JobID: l2.JobID, Unit: l2.Unit, Token: l2.Token},
	}})
	if hb.Lost != 1 {
		t.Fatalf("straggler heartbeat = %+v, want lost", hb)
	}
}

// TestLeaseExpiresOnlyOnRegrant: with the persistence loop running, a
// lease past its deadline stays its holder's until Lease re-grants its
// unit — the holder's heartbeat still extends it — and the re-grant counts
// exactly one expiry.
func TestLeaseExpiresOnlyOnRegrant(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{
		StateDir: dir, LeaseTTL: 10 * time.Second, UnitChunks: 4, PersistInterval: time.Millisecond, Metrics: reg,
	})
	var clock atomic.Int64 // fake seconds, readable from the persistence loop
	clock.Store(1000)
	c.now = func() time.Time { return time.Unix(clock.Load(), 0) }
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	defer func() {
		// Stop the loop's writes before the state dir is removed: a save
		// in progress holds the lock, and runs after it find no dir.
		cancel()
		c.mu.Lock()
		c.opts.StateDir = ""
		c.mu.Unlock()
	}()
	// persisted waits until the loop has run twice after the call, so at
	// least one whole run saw the clock as it is now: every run rewrites
	// the ledger.
	ledger := filepath.Join(dir, "ledger.ckpt")
	persisted := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			if err := os.Remove(ledger); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, err := os.Stat(ledger); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the persistence loop did not run")
				}
			}
		}
	}
	if _, err := c.Submit(*testSpec()); err != nil {
		t.Fatal(err)
	}
	l1, err := c.Lease("w1")
	if err != nil || l1 == nil {
		t.Fatalf("lease: %v %v", l1, err)
	}
	ref := []LeaseRef{{JobID: l1.JobID, Unit: l1.Unit, Token: l1.Token}}
	expired := func() uint64 { return reg.Snapshot().Counters["dist.leases_expired"] }

	// Past the deadline, with the loop running, the lease is still w1's
	// to extend.
	clock.Add(11)
	persisted()
	if hb := c.Heartbeat(HeartbeatRequest{WorkerID: "w1", Leases: ref}); hb.Extended != 1 || hb.Lost != 0 {
		t.Fatalf("heartbeat past the deadline = %+v, want the lease extended", hb)
	}
	if n := expired(); n != 0 {
		t.Fatalf("dist.leases_expired = %d before any re-grant, want 0", n)
	}
	if next, _ := c.Lease("w2"); next == nil || next.Unit == l1.Unit {
		t.Fatalf("lease after the extension = %+v, want another unit", next)
	}

	// Past the extended deadline, a lease request re-grants the unit and
	// counts its one expiry.
	clock.Add(11)
	persisted()
	next, _ := c.Lease("w3")
	if next == nil || next.Unit != l1.Unit || next.Token == l1.Token {
		t.Fatalf("re-grant = %+v, want unit %d under a new token", next, l1.Unit)
	}
	if n := expired(); n != 1 {
		t.Fatalf("dist.leases_expired = %d after one re-grant, want 1", n)
	}
	if hb := c.Heartbeat(HeartbeatRequest{WorkerID: "w1", Leases: ref}); hb.Lost != 1 {
		t.Fatalf("heartbeat after the re-grant = %+v, want the lease lost", hb)
	}
}

// TestCompleteDuplicateAndLateResults pins at-most-once merging at the
// coordinator layer: a unit delivered twice (retried POST, or a straggler
// racing a re-dispatch) merges once and is acknowledged as duplicate the
// second time.
func TestCompleteDuplicateAndLateResults(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 4, Metrics: reg})
	spec := testSpec()
	if _, err := c.Submit(*spec); err != nil {
		t.Fatal(err)
	}
	lease, err := c.Lease("w1")
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
	st, _ := c.Status(lease.JobID)
	if st.DoneChunks != lease.Hi-lease.Lo {
		t.Fatalf("DoneChunks = %d after duplicate, want %d", st.DoneChunks, lease.Hi-lease.Lo)
	}
	if n := reg.Snapshot().Counters["dist.merges_duplicate"]; n != 1 {
		t.Fatalf("dist.merges_duplicate = %d, want 1", n)
	}

	// A corrupted envelope for a not-yet-merged unit is rejected and
	// merges nothing.
	lease2, err := c.Lease("w2")
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
	if st, _ := c.Status(lease2.JobID); st.DoneChunks != lease.Hi-lease.Lo {
		t.Fatal("rejected envelope advanced the accumulator")
	}
}

// TestLedgerRecovery pins the torn-restart path: a coordinator killed with
// a half-merged job comes back (same state dir) resuming that job, serves
// the unmerged units again, and finishes with bytes identical to a local
// run — including progress merged after the last persist, which is simply
// recomputed.
func TestLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	localRep, localBytes := localRun(t, spec)

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 4})
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
		lease, err := c1.Lease("w")
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

	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 4})
	st2, err := c2.Status(st.ID)
	if err != nil {
		t.Fatalf("restarted coordinator lost the job: %v", err)
	}
	if st2.State.Terminal() {
		t.Fatalf("restored state = %s", st2.State)
	}
	if st2.DoneChunks != 8 {
		t.Fatalf("restored DoneChunks = %d, want 8 (two persisted units)", st2.DoneChunks)
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

	// A third incarnation sees the job terminal and cache-serves it.
	c3 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 4})
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

	c1 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 4})
	st, err := c1.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	schemes, _ := spec.ResolveSchemes()
	r, err := faultsim.NewChunkRunner(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // 32 of 40 chunks
		lease, err := c1.Lease("w")
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
	if done := env.Payload["done_trials"].(json.Number).String(); done != "131072" {
		t.Fatalf("saved job holds %s trials, want 32 chunks of 4096", done)
	}
	scheme1 := env.Payload["results"].([]any)[1].(map[string]any)
	scheme1["by_year"] = scheme1["by_year"].([]any)[:1]
	if raw, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCoordinator(t, CoordinatorOptions{StateDir: dir, UnitChunks: 4})
	st2, err := c2.Status(st.ID)
	if err != nil {
		t.Fatalf("restarted coordinator lost the job: %v", err)
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
	if _, err := c.Lease("w"); !errors.Is(err, ErrDraining) {
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

// TestErrorBudgetFailsJob pins cross-worker budget aggregation at the
// service layer: fabricated voided trials from two units, each within
// faultsim.DefaultErrorBudget but over it together, trip the job into the
// failed state, which the status and result paths surface.
func TestErrorBudgetFailsJob(t *testing.T) {
	spec := testSpec()
	spec.Schemes = []string{"XED"}
	spec.Trials = 2 * faultsim.DefaultChunkSize
	c := newTestCoordinator(t, CoordinatorOptions{UnitChunks: 1})
	st, err := c.Submit(*spec)
	if err != nil {
		t.Fatal(err)
	}
	const perUnit = faultsim.DefaultErrorBudget * 3 / 5
	mkRes := func(lo int) faultsim.ChunkResult {
		res := faultsim.ChunkResult{
			Lo: lo, Hi: lo + 1,
			Trials:  faultsim.DefaultChunkSize - perUnit,
			Tallies: []faultsim.SchemeTally{{ByYear: make([]uint64, 2)}},
		}
		for i := 0; i < perUnit; i++ {
			res.Errors = append(res.Errors, faultsim.TrialError{
				Trial: lo*faultsim.DefaultChunkSize + i, Chunk: lo, RNGState: [4]uint64{1, 2, 3, 4}, PanicValue: "boom",
			})
		}
		return res
	}
	l1, _ := c.Lease("w")
	if _, err := c.Complete(CompleteRequest{JobID: st.ID, Unit: l1.Unit, Token: l1.Token, Result: mkRes(l1.Lo)}); err != nil {
		t.Fatal(err)
	}
	l2, _ := c.Lease("w")
	resp, err := c.Complete(CompleteRequest{JobID: st.ID, Unit: l2.Unit, Token: l2.Token, Result: mkRes(l2.Lo)})
	if err != nil || !resp.JobDone {
		t.Fatalf("budget-tripping complete = %+v, %v", resp, err)
	}
	st, _ = c.Status(st.ID)
	if st.State != JobFailed || st.Error == "" || st.TrialErrors != 2*perUnit {
		t.Fatalf("failed job status = %+v", st)
	}
	if _, err := c.Result(st.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Result of failed job err = %v", err)
	}
	// No further work is handed out for a failed job.
	if lease, _ := c.Lease("w"); lease != nil {
		t.Fatal("failed job produced work")
	}
}
