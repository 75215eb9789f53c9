package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// Coordinator defaults.
const (
	DefaultQueueDepth      = 16
	DefaultLeaseTTL        = 15 * time.Second
	DefaultUnitChunks      = 64
	DefaultPersistInterval = 5 * time.Second
)

// Ledger framing on disk.
const (
	ledgerKind    = "dist-ledger"
	ledgerVersion = 1
	// ledgerHash is fixed: the ledger's compatibility is carried by
	// kind/version, and each job's own checkpoint is guarded by its
	// campaign config hash.
	ledgerHash = "dist-ledger"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission beyond the bounded queue depth
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("dist: job queue full")
	// ErrDraining rejects work while the coordinator drains for shutdown
	// (HTTP 503 + Retry-After).
	ErrDraining = errors.New("dist: coordinator draining")
	// ErrUnknownJob reports a job ID the coordinator has no record of
	// (HTTP 404) — after a restart that lost an unpersisted job, clients
	// resubmit the spec (same ID, deterministic result).
	ErrUnknownJob = errors.New("dist: unknown job")
	// ErrNotDone reports a result request for an unfinished job (HTTP 409).
	ErrNotDone = errors.New("dist: job not done")
)

// CoordinatorOptions parameterises NewCoordinator.
type CoordinatorOptions struct {
	// StateDir, when non-empty, persists the job ledger and per-job
	// accumulators so a restarted coordinator resumes in-flight jobs. An
	// empty StateDir keeps everything in memory (tests, throwaway runs).
	StateDir string
	// QueueDepth bounds the jobs admitted but not yet terminal; 0 selects
	// DefaultQueueDepth. Beyond it, submissions get ErrQueueFull.
	QueueDepth int
	// LeaseTTL is how long a granted work unit stays reserved without a
	// heartbeat; 0 selects DefaultLeaseTTL. It is the re-dispatch latency
	// for a dead worker's units, and must exceed a unit's compute time
	// (heartbeats extend in-flight leases).
	LeaseTTL time.Duration
	// UnitChunks is the chunks-per-lease granularity; 0 selects
	// DefaultUnitChunks. Fixed per job at submission.
	UnitChunks int
	// PersistInterval paces the background persistence of dirty job
	// accumulators (Start); 0 selects DefaultPersistInterval.
	PersistInterval time.Duration
	// Metrics, when non-nil, publishes coordinator counters under
	// "dist.*" names.
	Metrics *obs.Registry
}

func (o CoordinatorOptions) normalize() CoordinatorOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.UnitChunks <= 0 {
		o.UnitChunks = DefaultUnitChunks
	}
	if o.PersistInterval <= 0 {
		o.PersistInterval = DefaultPersistInterval
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
	id         string
	spec       JobSpec
	unitChunks int
	state      JobState
	errMsg     string
	merger     *faultsim.Merger
	units      []unit
	unmerged   int
	dirty      bool // merged progress not yet persisted
}

// ledgerEntry and ledgerSnapshot are the ledger checkpoint payload: enough
// to rebuild every job's identity and re-derive its unit layout; merged
// progress lives in each job's own campaign checkpoint.
type ledgerEntry struct {
	ID         string   `json:"id"`
	Spec       JobSpec  `json:"spec"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	UnitChunks int      `json:"unit_chunks"`
}

type ledgerSnapshot struct {
	Jobs []ledgerEntry `json:"jobs"`
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
	heartbeats      *obs.Counter
	heartbeatsLost  *obs.Counter
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
		heartbeats:      r.Counter("dist.heartbeats"),
		heartbeatsLost:  r.Counter("dist.heartbeats_lost"),
	}
}

// Coordinator shards campaign jobs into leased work units, merges worker
// results idempotently, and persists enough state to survive restarts. All
// methods are safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions
	now  func() time.Time // test hook; time.Now by default
	met  coordMetrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for fair dispatch scans
	token    uint64   // lease token allocator
	draining bool
}

// NewCoordinator builds a coordinator and, when opts.StateDir is set,
// recovers the job ledger from a previous incarnation: terminal jobs come
// back cache-servable, in-flight jobs resume from their last persisted
// accumulator with every unmerged unit grantable again. Progress merged
// after the last persist is recomputed by workers — determinism makes the
// recomputation bit-identical, so a torn restart never changes a result.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		opts: opts.normalize(),
		now:  time.Now,
		jobs: make(map[string]*job),
		met:  newCoordMetrics(opts.Metrics),
	}
	if c.opts.StateDir != "" {
		if err := os.MkdirAll(c.opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: state dir: %w", err)
		}
		if err := c.recover(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Coordinator) ledgerPath() string { return filepath.Join(c.opts.StateDir, "ledger.ckpt") }
func (c *Coordinator) jobPath(id string) string {
	return filepath.Join(c.opts.StateDir, "job-"+id+".ckpt")
}

// recover loads the ledger and rebuilds job state. Called from
// NewCoordinator before the coordinator is shared, so no locking.
func (c *Coordinator) recover() error {
	var led ledgerSnapshot
	err := checkpoint.Load(c.ledgerPath(), ledgerKind, ledgerVersion, ledgerHash, &led)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dist: recovering ledger: %w", err)
	}
	for _, ent := range led.Jobs {
		j, err := c.buildJob(ent.Spec, ent.UnitChunks)
		if err != nil {
			// A ledger entry the current binary cannot rebuild (e.g. a
			// scheme vocabulary change) is dropped rather than wedging
			// every other job.
			continue
		}
		if j.id != ent.ID {
			continue // ledger/id mismatch; treat as corrupt entry
		}
		if err := j.merger.Load(c.jobPath(j.id)); err != nil {
			// Unreadable or mismatched accumulator: recompute from zero.
			j.dirty = false
		}
		// Re-derive unit merge state from the restored chunk bitmap.
		j.unmerged = 0
		for i := range j.units {
			j.units[i].merged = j.merger.SpanMerged(j.units[i].lo, j.units[i].hi)
			if !j.units[i].merged {
				j.unmerged++
			}
		}
		switch {
		case ent.State == JobFailed:
			j.state, j.errMsg = JobFailed, ent.Error
		case j.unmerged == 0:
			j.state = JobDone
		case ent.State == JobQueued:
			j.state = JobQueued
		default:
			j.state = JobRunning
		}
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		if !j.state.Terminal() {
			c.met.jobsResumed.Inc()
		}
	}
	c.met.queueDepth.Set(int64(c.activeLocked()))
	return nil
}

// buildJob constructs a job (merger + unit layout) from a spec.
func (c *Coordinator) buildJob(spec JobSpec, unitChunks int) (*job, error) {
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
	if unitChunks <= 0 {
		unitChunks = c.opts.UnitChunks
	}
	j := &job{
		id:         m.Hash(),
		spec:       spec,
		unitChunks: unitChunks,
		state:      JobQueued,
		merger:     m,
	}
	for lo := 0; lo < m.NumChunks(); lo += unitChunks {
		hi := lo + unitChunks
		if hi > m.NumChunks() {
			hi = m.NumChunks()
		}
		j.units = append(j.units, unit{lo: lo, hi: hi})
	}
	j.unmerged = len(j.units)
	return j, nil
}

// activeLocked counts non-terminal jobs (the bounded-queue occupancy).
func (c *Coordinator) activeLocked() int {
	n := 0
	for _, j := range c.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// Submit admits a campaign job. Submissions are idempotent by config hash:
// resubmitting a known job returns its current status — and a completed
// job's status immediately, marked Cached, without scheduling any work
// (the completed-result cache). New jobs beyond the queue depth are
// rejected with ErrQueueFull; a draining coordinator rejects all
// submissions with ErrDraining.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, error) {
	j, err := c.buildJob(spec, 0)
	if err != nil {
		return JobStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.jobs[j.id]; ok {
		st := c.statusLocked(existing)
		if existing.state == JobDone {
			st.Cached = true
			c.met.cacheHits.Inc()
		}
		return st, nil
	}
	if c.draining {
		return JobStatus{}, ErrDraining
	}
	if c.activeLocked() >= c.opts.QueueDepth {
		return JobStatus{}, ErrQueueFull
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.met.jobsSubmitted.Inc()
	c.met.queueDepth.Set(int64(c.activeLocked()))
	c.persistLedgerLocked()
	return c.statusLocked(j), nil
}

// Lease grants the next available work unit: scanning jobs in submission
// order, a unit is grantable when unmerged and either never leased or past
// its deadline (straggler/death re-dispatch). Re-granting an expired lease
// is the one place a lease expires, counted once in dist.leases_expired;
// until then its holder's heartbeat still extends it. Returns nil when no
// work is available.
func (c *Coordinator) Lease(workerID string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, ErrDraining
	}
	now := c.now()
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state.Terminal() {
			continue
		}
		for i := range j.units {
			u := &j.units[i]
			if u.merged {
				continue
			}
			if u.token != 0 {
				if now.Before(u.deadline) {
					continue
				}
				// Expired lease: reclaim and re-dispatch.
				c.met.leasesExpired.Inc()
			}
			c.token++
			u.token = c.token
			u.deadline = now.Add(c.opts.LeaseTTL)
			if j.state == JobQueued {
				j.state = JobRunning
				c.persistLedgerLocked()
			}
			c.met.leasesGranted.Inc()
			return &Lease{
				JobID:     j.id,
				Unit:      i,
				Lo:        u.lo,
				Hi:        u.hi,
				Token:     u.token,
				TTLMillis: c.opts.LeaseTTL.Milliseconds(),
				Spec:      j.spec,
			}, nil
		}
	}
	return nil, nil
}

// Complete merges one finished unit. The merge is at-most-once per unit:
// duplicate deliveries — a retried POST, a chaos-duplicated request, or
// two workers racing on a re-dispatched unit — are acknowledged as
// duplicates and dropped. The lease token is deliberately advisory here:
// any correct result for the unit is acceptable (chunk determinism
// guarantees every attempt computes identical tallies), so an expired
// lease's late result still merges if it arrives first.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[req.JobID]
	if !ok {
		return CompleteResponse{}, ErrUnknownJob
	}
	if req.Unit < 0 || req.Unit >= len(j.units) {
		return CompleteResponse{}, fmt.Errorf("dist: job %.12s has no unit %d", req.JobID, req.Unit)
	}
	u := &j.units[req.Unit]
	if j.state.Terminal() || u.merged {
		c.met.mergesDuplicate.Inc()
		return CompleteResponse{Duplicate: true, JobDone: j.state.Terminal()}, nil
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
	return CompleteResponse{Merged: true, JobDone: j.state.Terminal()}, nil
}

// Heartbeat extends the quoted leases that are still held under their
// token. A lease that expired and was re-granted elsewhere is reported
// lost, telling the straggler its unit may be recomputed by someone else
// (its eventual result is still welcome — first merge wins).
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.heartbeats.Inc()
	now := c.now()
	var resp HeartbeatResponse
	for _, ref := range req.Leases {
		j, ok := c.jobs[ref.JobID]
		if ok && !j.state.Terminal() && ref.Unit >= 0 && ref.Unit < len(j.units) {
			u := &j.units[ref.Unit]
			if !u.merged && u.token == ref.Token {
				u.deadline = now.Add(c.opts.LeaseTTL)
				resp.Extended++
				continue
			}
		}
		resp.Lost++
	}
	c.met.heartbeatsLost.Add(uint64(resp.Lost))
	return resp
}

// finishLocked transitions a fully merged job to done and persists it.
func (c *Coordinator) finishLocked(j *job) {
	j.state = JobDone
	j.dirty = false
	c.met.jobsCompleted.Inc()
	c.met.queueDepth.Set(int64(c.activeLocked()))
	c.persistJobLocked(j)
	c.persistLedgerLocked()
}

// failLocked transitions a job to failed and persists it.
func (c *Coordinator) failLocked(j *job, msg string) {
	j.state = JobFailed
	j.errMsg = msg
	j.dirty = false
	c.met.jobsFailed.Inc()
	c.met.queueDepth.Set(int64(c.activeLocked()))
	c.persistJobLocked(j)
	c.persistLedgerLocked()
}

// persistLedgerLocked writes the ledger checkpoint (no-op without a
// StateDir). Persistence failures are deliberately non-fatal to the
// serving path: the coordinator keeps working from memory and the next
// persistence point retries.
func (c *Coordinator) persistLedgerLocked() {
	if c.opts.StateDir == "" {
		return
	}
	led := ledgerSnapshot{}
	for _, id := range c.order {
		j := c.jobs[id]
		led.Jobs = append(led.Jobs, ledgerEntry{
			ID: j.id, Spec: j.spec, State: j.state, Error: j.errMsg, UnitChunks: j.unitChunks,
		})
	}
	checkpoint.Save(c.ledgerPath(), ledgerKind, ledgerVersion, ledgerHash, &led) //nolint:errcheck
}

// persistJobLocked writes one job's accumulator checkpoint.
func (c *Coordinator) persistJobLocked(j *job) {
	if c.opts.StateDir == "" {
		return
	}
	if err := j.merger.Save(c.jobPath(j.id)); err == nil {
		j.dirty = false
	}
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

// Status returns a job's current status.
func (c *Coordinator) Status(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return c.statusLocked(j), nil
}

// Result returns a completed job's Report.
func (c *Coordinator) Result(id string) (*faultsim.Report, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.state != JobDone {
		return nil, fmt.Errorf("%w: job %.12s is %s", ErrNotDone, id, j.state)
	}
	return j.merger.Report(), nil
}

// CheckpointBytes returns a completed job's canonical snapshot — the bytes
// a local RunCampaign with the same spec would leave in its checkpoint
// file, byte for byte.
func (c *Coordinator) CheckpointBytes(id string) ([]byte, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.state != JobDone {
		return nil, fmt.Errorf("%w: job %.12s is %s", ErrNotDone, id, j.state)
	}
	return j.merger.SnapshotBytes()
}

// Drain flips the coordinator into shutdown mode: /readyz fails, new
// submissions and lease requests are refused (workers back off and retry
// against the restarted coordinator), and all state is persisted.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.SaveState()
}

// Ready implements the /readyz check: not ready while draining.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return ErrDraining
	}
	return nil
}

// SaveState persists the ledger and every job with unpersisted progress.
func (c *Coordinator) SaveState() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		if j := c.jobs[id]; j.dirty {
			c.persistJobLocked(j)
		}
	}
	c.persistLedgerLocked()
}

// Start runs the background persistence loop until ctx is cancelled: it
// saves dirty accumulators every PersistInterval, which bounds how much a
// torn restart has to recompute.
func (c *Coordinator) Start(ctx context.Context) {
	go func() {
		tick := time.NewTicker(c.opts.PersistInterval)
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
// internal/obs.
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
		st, err := c.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
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
		lease, err := c.Lease(req.WorkerID)
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
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

	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := decodeJSON(w, r, &req, false); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, c.Heartbeat(req))
	})

	return mux
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
