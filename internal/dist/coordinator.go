package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

const (
	// DefaultLeaseTTL is the lease TTL when CoordinatorOptions sets none.
	DefaultLeaseTTL = 15 * time.Second
	// MaxWait caps how long the coordinator holds a status or lease
	// request. Client.Wait and the worker ask for it.
	MaxWait = 30 * time.Second

	// queueDepth bounds the jobs admitted but not yet terminal; beyond
	// it, submissions get ErrQueueFull.
	queueDepth = 16
	// unitChunks is the chunk span of a leased work unit.
	unitChunks = 64
	// persistInterval paces Start's saves of dirty jobs.
	persistInterval = 5 * time.Second
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission beyond the bounded queue depth
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("dist: job queue full")
	// ErrDraining rejects work while the coordinator drains for shutdown,
	// and releases held requests (HTTP 503 + Retry-After).
	ErrDraining = errors.New("dist: coordinator draining")
	// ErrUnknownJob reports a job ID the coordinator has no record of
	// (HTTP 404). A restarted coordinator knows a job again once its
	// client resubmits the spec (same ID, deterministic result).
	ErrUnknownJob = errors.New("dist: unknown job")
	// ErrNotDone reports a result request for an unfinished job (HTTP 409).
	ErrNotDone = errors.New("dist: job not done")
)

// CoordinatorOptions parameterises NewCoordinator.
type CoordinatorOptions struct {
	// StateDir, when non-empty, holds each job's checkpoint, job-<id>.ckpt,
	// so a restarted coordinator resumes a job when its client resubmits
	// it. An empty StateDir keeps everything in memory (tests, throwaway
	// runs).
	StateDir string
	// LeaseTTL is how long a granted work unit stays reserved; 0 selects
	// DefaultLeaseTTL. It is the re-dispatch latency for a dead worker's
	// units. A unit that outlives it is re-granted and computed twice,
	// and the first result to arrive merges.
	LeaseTTL time.Duration
	// Metrics, when non-nil, publishes coordinator counters under
	// "dist.*" names.
	Metrics *obs.Registry
}

func (o CoordinatorOptions) normalize() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	return o
}

// unit is one leasable work item: a contiguous chunk span of a job.
type unit struct {
	lo, hi   int
	merged   bool
	token    uint64    // current lease token; 0 = unleased
	deadline time.Time // lease expiry, while token != 0
}

// job is one campaign's coordinator-side state.
type job struct {
	id       string
	spec     JobSpec
	state    JobState
	errMsg   string
	merger   *faultsim.Merger
	units    []unit // nil once the job is terminal
	unmerged int
	dirty    bool  // merged progress not yet persisted
	saveErr  error // the latest failed save, until one succeeds
}

// coordMetrics holds pre-resolved obs handles (nil-safe when unset).
type coordMetrics struct {
	jobsSubmitted   *obs.Counter
	jobsCompleted   *obs.Counter
	jobsFailed      *obs.Counter
	cacheHits       *obs.Counter
	jobsResumed     *obs.Counter
	queueDepth      *obs.Gauge
	leasesGranted   *obs.Counter
	leasesExpired   *obs.Counter
	merges          *obs.Counter
	mergesDuplicate *obs.Counter
	mergeMS         *obs.Histogram
	chunksMerged    *obs.Counter
	saveFailures    *obs.Counter
}

func newCoordMetrics(r *obs.Registry) coordMetrics {
	return coordMetrics{
		jobsSubmitted:   r.Counter("dist.jobs_submitted"),
		jobsCompleted:   r.Counter("dist.jobs_completed"),
		jobsFailed:      r.Counter("dist.jobs_failed"),
		cacheHits:       r.Counter("dist.jobs_cache_hits"),
		jobsResumed:     r.Counter("dist.jobs_resumed"),
		queueDepth:      r.Gauge("dist.queue_depth"),
		leasesGranted:   r.Counter("dist.leases_granted"),
		leasesExpired:   r.Counter("dist.leases_expired"),
		merges:          r.Counter("dist.merges"),
		mergesDuplicate: r.Counter("dist.merges_duplicate"),
		mergeMS:         r.Histogram("dist.merge_ms", []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 100}),
		chunksMerged:    r.Counter("dist.chunks_merged"),
		saveFailures:    r.Counter("dist.job_save_failures"),
	}
}

// Coordinator shards campaign jobs into leased work units, merges worker
// results idempotently, and persists each job's checkpoint so a restart
// loses at most what merged since the last save. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts CoordinatorOptions
	now  func() time.Time // test hook; time.Now by default
	met  coordMetrics

	mu   sync.Mutex
	jobs map[string]*job
	// order holds the unfinished jobs in submission order: Lease scans it,
	// and its length is the bounded queue's occupancy.
	order    []*job
	token    uint64 // lease token allocator
	draining bool
	// changed is closed, and replaced, on every submit, merge and drain:
	// held status and lease requests wait on it.
	changed chan struct{}
}

// NewCoordinator builds a coordinator. It reads no state at start: a
// job's checkpoint in opts.StateDir is loaded when the job is submitted
// again (see Submit).
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		opts:    opts.normalize(),
		now:     time.Now,
		jobs:    make(map[string]*job),
		met:     newCoordMetrics(opts.Metrics),
		changed: make(chan struct{}),
	}
	if c.opts.StateDir != "" {
		if err := os.MkdirAll(c.opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: state dir: %w", err)
		}
	}
	return c, nil
}

func (c *Coordinator) jobPath(id string) string {
	return filepath.Join(c.opts.StateDir, "job-"+id+".ckpt")
}

// buildJob constructs a job (merger + unit layout) from a spec.
func (c *Coordinator) buildJob(spec JobSpec) (*job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	schemes, err := spec.ResolveSchemes()
	if err != nil {
		return nil, err
	}
	m, err := faultsim.NewMerger(spec.Config, schemes, spec.CampaignOptions())
	if err != nil {
		return nil, err
	}
	j := &job{id: m.Hash(), spec: spec, state: JobQueued, merger: m}
	for lo := 0; lo < m.NumChunks(); lo += unitChunks {
		j.units = append(j.units, unit{lo: lo, hi: min(lo+unitChunks, m.NumChunks())})
	}
	j.unmerged = len(j.units)
	return j, nil
}

// restore loads j's checkpoint, when the state dir holds one, and
// re-derives each unit's merged bit and the job's state from it: every
// chunk merged is done, a trial-error count over the budget is failed, and
// anything else is still to run. A checkpoint that cannot be read, or one
// whose merged chunks part-cover a unit (a coordinator that leased other
// spans saved it), is dropped, and the job recomputes from zero: chunks
// are deterministic, so the result is the same.
func (c *Coordinator) restore(j *job) *job {
	if c.opts.StateDir == "" || j.merger.Load(c.jobPath(j.id)) != nil || j.merger.DoneChunks() == 0 {
		return j
	}
	if n := j.merger.TrialErrorCount(); n > faultsim.DefaultErrorBudget {
		errs := j.merger.Report().TrialErrors
		j.state = JobFailed
		j.errMsg = fmt.Sprintf("%v: %d trials panicked (budget %d); first: %v",
			faultsim.ErrErrorBudgetExceeded, n, faultsim.DefaultErrorBudget, &errs[0])
		j.units = nil
		return j
	}
	merged := 0
	for i := range j.units {
		u := &j.units[i]
		if u.merged = j.merger.SpanMerged(u.lo, u.hi); u.merged {
			merged += u.hi - u.lo
			j.unmerged--
		}
	}
	if merged != j.merger.DoneChunks() {
		fresh, _ := c.buildJob(j.spec) // j's spec built once already
		return fresh
	}
	if j.unmerged == 0 {
		j.state, j.units = JobDone, nil
	}
	return j
}

// wakeLocked releases every held request to look again.
func (c *Coordinator) wakeLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// knownLocked answers a submission of a job the coordinator holds: its
// current status, marked Cached when it is done (the completed-result
// cache).
func (c *Coordinator) knownLocked(j *job) JobStatus {
	st := c.statusLocked(j)
	if j.state == JobDone {
		st.Cached = true
		c.met.cacheHits.Inc()
	}
	return st
}

// Submit admits a campaign job. Submissions are idempotent by config hash:
// resubmitting a known job returns its current status — and a completed
// job's status immediately, marked Cached, without scheduling any work
// (the completed-result cache). A job the coordinator does not hold is
// first restored from its checkpoint in the state dir, if there is one
// (see restore): a finished or failed job is held again at once, and an
// unfinished one resumes from its saved progress. New jobs beyond the
// queue depth are rejected with ErrQueueFull; a draining coordinator
// rejects all of them with ErrDraining.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, error) {
	j, err := c.buildJob(spec)
	if err != nil {
		return JobStatus{}, err
	}
	c.mu.Lock()
	if existing, ok := c.jobs[j.id]; ok {
		defer c.mu.Unlock()
		return c.knownLocked(existing), nil
	}
	c.mu.Unlock()
	j = c.restore(j) // outside the lock: it reads a file

	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.jobs[j.id]; ok { // a concurrent submission won
		return c.knownLocked(existing), nil
	}
	if !j.state.Terminal() {
		if c.draining {
			return JobStatus{}, ErrDraining
		}
		if len(c.order) >= queueDepth {
			return JobStatus{}, ErrQueueFull
		}
		c.order = append(c.order, j)
		c.met.queueDepth.Set(int64(len(c.order)))
	}
	c.jobs[j.id] = j
	c.wakeLocked()
	switch {
	case j.state.Terminal():
		return c.knownLocked(j), nil
	case j.merger.DoneChunks() > 0:
		c.met.jobsResumed.Inc()
	default:
		c.met.jobsSubmitted.Inc()
	}
	return c.statusLocked(j), nil
}

// Lease grants the next available work unit: scanning jobs in submission
// order, a unit is grantable when unmerged and either never leased or past
// its deadline (straggler/death re-dispatch). Re-granting an expired lease
// is the one place a lease expires, counted once in dist.leases_expired.
//
// When no unit is grantable, Lease holds the request for up to wait
// (capped at MaxWait; 0 answers at once): it looks again on every job
// event and at the earliest outstanding lease deadline, so a unit whose
// grant was lost is re-granted at its TTL. It returns nil when the wait
// ends first, ErrDraining once the coordinator drains, and ctx's error
// when ctx ends.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (*Lease, error) {
	end := time.Now().Add(min(wait, MaxWait))
	for {
		c.mu.Lock()
		lease, expiry, err := c.leaseLocked()
		changed := c.changed
		c.mu.Unlock()
		hold := time.Until(end)
		if lease != nil || err != nil || hold <= 0 {
			return lease, err
		}
		if expiry > 0 && expiry < hold {
			hold = expiry
		}
		if err := holdFor(ctx, changed, hold); err != nil {
			return nil, err
		}
	}
}

// leaseLocked grants a unit if one is grantable; otherwise it returns the
// time until the earliest outstanding lease deadline (0 when none).
func (c *Coordinator) leaseLocked() (*Lease, time.Duration, error) {
	if c.draining {
		return nil, 0, ErrDraining
	}
	now := c.now()
	var expiry time.Duration
	for _, j := range c.order {
		for i := range j.units {
			u := &j.units[i]
			if u.merged {
				continue
			}
			if u.token != 0 {
				if d := u.deadline.Sub(now); d > 0 {
					if expiry == 0 || d < expiry {
						expiry = d
					}
					continue
				}
				// Expired lease: reclaim and re-dispatch.
				c.met.leasesExpired.Inc()
			}
			c.token++
			u.token = c.token
			u.deadline = now.Add(c.opts.LeaseTTL)
			j.state = JobRunning
			c.met.leasesGranted.Inc()
			return &Lease{
				JobID:     j.id,
				Unit:      i,
				Lo:        u.lo,
				Hi:        u.hi,
				Token:     u.token,
				TTLMillis: c.opts.LeaseTTL.Milliseconds(),
				Spec:      j.spec,
			}, 0, nil
		}
	}
	return nil, expiry, nil
}

// holdFor waits for changed to close, for d, or for ctx to end, and
// reports ctx's error in the last case.
func holdFor(ctx context.Context, changed <-chan struct{}, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-changed:
	case <-t.C:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Complete merges one finished unit. The merge is at-most-once per unit:
// duplicate deliveries — a retried POST, a chaos-duplicated request, or
// two workers racing on a re-dispatched unit — are acknowledged as
// duplicates and dropped, and so is any delivery to a finished or failed
// job. The lease token is deliberately advisory here: any correct result
// for the unit is acceptable (chunk determinism guarantees every attempt
// computes identical tallies), so an expired lease's late result still
// merges if it arrives first.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[req.JobID]
	if !ok {
		return CompleteResponse{}, ErrUnknownJob
	}
	if j.state.Terminal() { // its units are gone
		c.met.mergesDuplicate.Inc()
		return CompleteResponse{Duplicate: true, JobDone: true}, nil
	}
	if req.Unit < 0 || req.Unit >= len(j.units) {
		return CompleteResponse{}, fmt.Errorf("dist: job %.12s has no unit %d", req.JobID, req.Unit)
	}
	u := &j.units[req.Unit]
	if u.merged {
		c.met.mergesDuplicate.Inc()
		return CompleteResponse{Duplicate: true}, nil
	}
	if req.Result.Lo != u.lo || req.Result.Hi != u.hi {
		return CompleteResponse{}, fmt.Errorf("dist: unit %d result spans [%d, %d), expected [%d, %d)",
			req.Unit, req.Result.Lo, req.Result.Hi, u.lo, u.hi)
	}
	start := c.now()
	err := j.merger.Merge(&req.Result)
	switch {
	case err == nil:
	case errors.Is(err, faultsim.ErrDuplicateChunks):
		c.met.mergesDuplicate.Inc()
		u.merged, u.token = true, 0
		return CompleteResponse{Duplicate: true}, nil
	case errors.Is(err, faultsim.ErrErrorBudgetExceeded):
		// The merge folded before tripping the aggregated budget; the job
		// is failed, its partial state persisted for post-mortems.
		u.merged, u.token = true, 0
		j.unmerged--
		c.failLocked(j, err.Error())
		c.wakeLocked()
		return CompleteResponse{Merged: true, JobDone: true}, nil
	default:
		return CompleteResponse{}, err
	}
	c.met.merges.Inc()
	c.met.chunksMerged.Add(uint64(u.hi - u.lo))
	c.met.mergeMS.Observe(float64(c.now().Sub(start).Microseconds()) / 1e3)
	u.merged, u.token = true, 0
	j.unmerged--
	j.dirty = true
	if j.unmerged == 0 {
		c.finishLocked(j)
	}
	c.wakeLocked()
	return CompleteResponse{Merged: true, JobDone: j.state.Terminal()}, nil
}

// finishLocked transitions a fully merged job to done and persists it.
func (c *Coordinator) finishLocked(j *job) {
	j.state = JobDone
	c.met.jobsCompleted.Inc()
	c.retireLocked(j)
}

// failLocked transitions a job to failed and persists it.
func (c *Coordinator) failLocked(j *job, msg string) {
	j.state = JobFailed
	j.errMsg = msg
	j.dirty = true
	c.met.jobsFailed.Inc()
	c.retireLocked(j)
}

// retireLocked takes a job that just turned terminal out of the dispatch
// order, drops its units, which nothing leases or merges again, and
// persists it.
func (c *Coordinator) retireLocked(j *job) {
	c.order = slices.DeleteFunc(c.order, func(o *job) bool { return o == j })
	c.met.queueDepth.Set(int64(len(c.order)))
	j.units = nil
	c.persistJobLocked(j)
}

// persistJobLocked writes one job's checkpoint. A job stays dirty until a
// save succeeds, so the persist tick retries a failed one; until then the
// failure is counted in dist.job_save_failures and /readyz reports it.
func (c *Coordinator) persistJobLocked(j *job) {
	if c.opts.StateDir == "" {
		return
	}
	if j.saveErr = j.merger.Save(c.jobPath(j.id)); j.saveErr != nil {
		c.met.saveFailures.Inc()
		return
	}
	j.dirty = false
}

// statusLocked builds the wire status for a job.
func (c *Coordinator) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		DoneChunks:  j.merger.DoneChunks(),
		TotalChunks: j.merger.NumChunks(),
		DoneTrials:  j.merger.DoneTrials(),
		Trials:      j.spec.Trials,
		TrialErrors: j.merger.TrialErrorCount(),
		Error:       j.errMsg,
	}
	rep := j.merger.Report()
	for i := range rep.Results {
		r := &rep.Results[i]
		lo, hi := faultsim.WilsonInterval(r.Failures, st.DoneTrials)
		st.Schemes = append(st.Schemes, SchemeProgress{
			Name: r.SchemeName, Failures: r.Failures, WilsonLo: lo, WilsonHi: hi,
		})
	}
	return st
}

// Status returns a job's current status. A terminal job answers at once;
// otherwise Status holds the request for up to wait (capped at MaxWait; 0
// answers at once) until the job's state or merged-chunk count differs
// from what it was when the request arrived. A held request ends with
// ErrDraining once the coordinator drains, and with ctx's error when ctx
// ends.
func (c *Coordinator) Status(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	end := time.Now().Add(min(wait, MaxWait))
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	state, done := j.state, j.merger.DoneChunks()
	for !j.state.Terminal() && j.state == state && j.merger.DoneChunks() == done {
		hold := time.Until(end)
		if hold <= 0 {
			break
		}
		if c.draining {
			return JobStatus{}, ErrDraining
		}
		changed := c.changed
		c.mu.Unlock()
		err := holdFor(ctx, changed, hold)
		c.mu.Lock()
		if err != nil {
			return JobStatus{}, err
		}
	}
	return c.statusLocked(j), nil
}

// doneJob returns a completed job.
func (c *Coordinator) doneJob(id string) (*job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.state != JobDone {
		return nil, fmt.Errorf("%w: job %.12s is %s", ErrNotDone, id, j.state)
	}
	return j, nil
}

// Result returns a completed job's Report.
func (c *Coordinator) Result(id string) (*faultsim.Report, error) {
	j, err := c.doneJob(id)
	if err != nil {
		return nil, err
	}
	return j.merger.Report(), nil
}

// CheckpointBytes returns a completed job's canonical snapshot — the bytes
// a local RunCampaign with the same spec would leave in its checkpoint
// file, byte for byte.
func (c *Coordinator) CheckpointBytes(id string) ([]byte, error) {
	j, err := c.doneJob(id)
	if err != nil {
		return nil, err
	}
	return j.merger.SnapshotBytes()
}

// Drain flips the coordinator into shutdown mode: /readyz fails, new
// submissions and lease requests are refused (workers back off and retry
// against the restarted coordinator), every held request is released with
// ErrDraining, and all state is persisted.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.wakeLocked()
	c.mu.Unlock()
	c.SaveState()
}

// Ready implements the /readyz check: not ready while draining, nor while
// any job's latest checkpoint save failed.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return ErrDraining
	}
	for id, j := range c.jobs {
		if j.saveErr != nil {
			return fmt.Errorf("dist: job %.12s not saved: %w", id, j.saveErr)
		}
	}
	return nil
}

// SaveState persists every job with unpersisted progress.
func (c *Coordinator) SaveState() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		if j.dirty {
			c.persistJobLocked(j)
		}
	}
}

// Start runs the background persistence loop until ctx is cancelled: it
// saves dirty accumulators every persistInterval, which bounds how much a
// torn restart has to recompute.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(persistInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				c.SaveState()
			}
		}
	}()
}

// Handler returns the coordinator's HTTP surface: the job and worker API
// under /v1/, plus /metrics, /healthz, /readyz and pprof from
// internal/obs. Held requests end with their request's context.
func (c *Coordinator) Handler() http.Handler {
	mux := obs.NewMux(c.opts.Metrics, c.Ready)

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A spec is the campaign's identity, so a field this coordinator
		// does not know is refused rather than dropped: dropping it would
		// run a different campaign than the client named.
		var spec JobSpec
		if err := decodeJSON(w, r, &spec, true); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		st, err := c.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.opts.LeaseTTL)))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var wait time.Duration
		if q := r.URL.Query().Get("wait"); q != "" {
			var err error
			if wait, err = time.ParseDuration(q); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("dist: wait: %w", err))
				return
			}
		}
		st, err := c.Status(r.Context(), r.PathValue("id"), wait)
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, err)
		case !writeHeld(w, err):
			writeJSON(w, http.StatusOK, st)
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		rep, err := c.Result(r.PathValue("id"))
		if err != nil {
			writeError(w, resultErrCode(err), err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		b, err := c.CheckpointBytes(r.PathValue("id"))
		if err != nil {
			writeError(w, resultErrCode(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(b) //nolint:errcheck // best-effort over HTTP
	})

	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := decodeJSON(w, r, &req, false); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		lease, err := c.Lease(r.Context(), req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
		switch {
		case writeHeld(w, err):
		case lease == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, lease)
		}
	})

	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if err := decodeJSON(w, r, &req, false); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := c.Complete(req)
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	})

	return mux
}

// writeHeld answers the errors a held request can end with, and reports
// whether err was one: ErrDraining is 503 with Retry-After, and a request
// whose context ended gets no answer, since nobody is left to read it.
// Any other non-nil error is a 500.
func writeHeld(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
	return true
}

// retryAfterSeconds suggests a backoff roughly one lease cycle long.
func retryAfterSeconds(ttl time.Duration) int {
	s := int(ttl / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func resultErrCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// maxBodyBytes bounds request payloads: a CompleteRequest carrying a full
// trial-error list is the largest legitimate message.
const maxBodyBytes = 16 << 20

// decodeJSON decodes a request body into into; strict refuses fields into
// does not have.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any, strict bool) error {
	defer r.Body.Close() //nolint:errcheck
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("dist: decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort over HTTP
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
