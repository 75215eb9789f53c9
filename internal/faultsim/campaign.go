package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/chunkrun"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// This file is the resilient Monte-Carlo campaign: the campaign's domain
// layer over internal/chunkrun, which owns the chunk queue, merging,
// checkpointing and resume. Run delegates to it; the CLIs reach it
// directly through RunCampaign for cancellation, checkpoint/resume and
// panic isolation.
//
// Every campaign takes one path: each chunk's trials are planned in one
// batch (batchgen.go) and judged 64 at a time by the bit-sliced
// LaneEvaluator (lanes.go). The scalar generator, Evaluator.EvaluateInto
// and the reference probe stay as the oracles the tests hold that path to.
//
// The campaign is divided into fixed-size chunks of consecutive trials, and
// chunk c draws from simrand substream (seed, c) — see Source.SeedStream.
// Chunks make three guarantees compose:
//
//   - Worker-count invariance: a chunk's trial stream is a pure function of
//     (config, seed, chunk index), and per-scheme tallies are sums of
//     per-chunk integers, so any scheduling of chunks over any number of
//     workers produces bit-identical Results.
//   - Checkpoint/resume: a snapshot is the set of completed chunks plus the
//     accumulated tallies. Resuming re-runs exactly the missing chunks, so
//     an interrupted+resumed campaign equals an uninterrupted one.
//   - Panic isolation: trial evaluation (scheme code) never touches the
//     trial RNG, so a panicking trial is caught in its lane, voided and
//     recorded as a TrialError without desynchronising the chunk's stream;
//     the chunk-head RNG state and the trial's place in the chunk plan
//     replay it in isolation.
//
// Chunk streams rather than per-trial streams are a measured tradeoff:
// reseeding xoshiro per trial costs more than an average trial does, and a
// chunk is what the batch plan draws at once.

// Campaign engine constants.
const (
	// DefaultChunkSize is the trials per chunk: the granularity of
	// scheduling, checkpointing and cancellation. It shapes the substreams,
	// so every campaign uses it. A chunk is ~100µs of work.
	DefaultChunkSize = 4096
	// DefaultCheckpointInterval spaces periodic snapshots.
	DefaultCheckpointInterval = 30 * time.Second
	// DefaultErrorBudget is how many panicking trials a campaign tolerates
	// before giving up.
	DefaultErrorBudget = 100
)

// checkpointKind and checkpointVersion frame campaign snapshots on disk.
// Version 2 marks the batch-planned trial stream: a version-1 snapshot
// may hold tallies of scalar-generated trials under the same config hash,
// so it is refused rather than blended.
const (
	checkpointKind    = "faultsim-campaign"
	checkpointVersion = 2
)

// ErrErrorBudgetExceeded reports a campaign aborted because more trials
// panicked than DefaultErrorBudget tolerates.
var ErrErrorBudgetExceeded = errors.New("faultsim: trial-error budget exceeded")

// CampaignOptions parameterises RunCampaign.
type CampaignOptions struct {
	// Trials is the number of systems to simulate. Required.
	Trials int
	// Seed is the campaign seed; all trial randomness derives from it.
	Seed uint64
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS. Results are
	// deterministic for a fixed (Config, schemes, Trials, Seed) regardless
	// of Workers.
	Workers int
	// CheckpointPath enables periodic atomic snapshots when non-empty.
	CheckpointPath string
	// CheckpointInterval spaces periodic snapshots; 0 selects
	// DefaultCheckpointInterval.
	CheckpointInterval time.Duration
	// Resume loads CheckpointPath before starting and re-runs only the
	// chunks it does not cover. A missing file starts fresh; a snapshot
	// from any different configuration is refused.
	Resume bool
	// OnChunk, when non-nil, observes progress after each chunk merge
	// (and once at startup when resuming): completed and total chunk
	// counts. It is called from worker goroutines, serialised.
	OnChunk func(doneChunks, totalChunks int)
	// Metrics, when non-nil, publishes live campaign counters under
	// "campaign.*" and "faultsim.gen.*" names: trial/chunk progress,
	// per-scheme failure tallies, trial errors, checkpoint save latency,
	// lane judging and plan shape. Workers count per chunk in plain memory
	// and publish at merge, so nothing touches a shared metric per trial.
	Metrics *obs.Registry
}

// TrialError records one panicking trial: where it was, what regenerates
// it, the fault stream it drew, and what the panic said. The campaign
// voids the trial (no scheme tallies it) and continues.
type TrialError struct {
	// Trial is the global trial index; Chunk the chunk it belongs to.
	Trial int `json:"trial"`
	Chunk int `json:"chunk"`
	// RNGState is the chunk's substream state before its plan was drawn,
	// ChunkTrials the chunk's trial count, and PlanIndex the trial's index
	// among the chunk's planned (non-empty) trials, or -1 for a trial that
	// drew no faults: what Replay needs to re-plan the chunk.
	RNGState    simrand.State `json:"rng_state"`
	ChunkTrials int           `json:"chunk_trials"`
	PlanIndex   int           `json:"plan_index"`
	// Faults is the trial's generated fault stream.
	Faults []FaultRecord `json:"faults"`
	// PanicValue and Stack describe the panic.
	PanicValue string `json:"panic"`
	Stack      string `json:"stack,omitempty"`
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("faultsim: trial %d (chunk %d) panicked: %s", e.Trial, e.Chunk, e.PanicValue)
}

// Replay regenerates the errored trial in isolation: it restores the
// chunk-head RNG state, re-plans the chunk with the same scheme-filtered
// generator the campaign used, emits its planned trials up to this one,
// and re-evaluates the trial with Evaluator.EvaluateInto, the panic
// contained. cfg and schemes must match the original campaign's
// (generation is filtered by what the schemes can react to). It returns
// the regenerated faults, the per-scheme outcomes (nil if the panic
// recurred) and the recovered panic value (nil if it did not).
func (e *TrialError) Replay(cfg Config, schemes []Scheme) (faults []FaultRecord, outs []TrialOutcome, panicked any, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(schemes) == 0 {
		return nil, nil, nil, fmt.Errorf("faultsim: no schemes to evaluate")
	}
	if e.ChunkTrials <= 0 {
		return nil, nil, nil, fmt.Errorf("faultsim: trial %d records no chunk plan", e.Trial)
	}
	rng, err := simrand.Restore(e.RNGState)
	if err != nil {
		return nil, nil, nil, err
	}
	ev := NewEvaluator(&cfg, schemes)
	if e.PlanIndex >= 0 {
		gen := newRunGenerator(&cfg, ev.evalTables)
		arr := newArrivalSamplers(gen.genTables)
		var p batchPlan
		p.build(gen.genTables, &arr, rng, e.ChunkTrials)
		if e.PlanIndex >= p.emitted() {
			return nil, nil, nil, fmt.Errorf("faultsim: trial %d has plan index %d, but its chunk plans %d trials",
				e.Trial, e.PlanIndex, p.emitted())
		}
		for i := 0; i <= e.PlanIndex; i++ {
			faults = p.emitTrial(gen, rng, i, faults[:0])
		}
	}
	func() {
		defer func() { panicked = recover() }()
		outs = append([]TrialOutcome(nil), ev.EvaluateInto(faults, nil)...)
	}()
	if panicked != nil {
		outs = nil
	}
	return faults, outs, panicked, nil
}

// SchemeTally is one scheme's integer tallies over some set of trials: the
// unit of chunk merging, of checkpoint payloads, and of the wire envelopes
// distributed workers return (see ChunkResult). Tallies compose by field-
// wise addition, which is what makes any partition of a campaign's chunks
// across processes merge back to bit-identical Results.
type SchemeTally struct {
	Failures uint64   `json:"failures"`
	DUEs     uint64   `json:"dues"`
	SDCs     uint64   `json:"sdcs"`
	ByYear   []uint64 `json:"by_year"`
}

// add folds t2 into t (field-wise integer addition).
func (t *SchemeTally) add(t2 *SchemeTally) {
	t.Failures += t2.Failures
	t.DUEs += t2.DUEs
	t.SDCs += t2.SDCs
	for y := range t.ByYear {
		t.ByYear[y] += t2.ByYear[y]
	}
}

// campaignSnapshot is the checkpoint payload: completed-chunk bitmap plus
// accumulated tallies. The shape parameters double as a human-readable
// record; compatibility is enforced by the envelope's config hash.
type campaignSnapshot struct {
	Trials     int           `json:"trials"`
	Seed       uint64        `json:"seed"`
	ChunkSize  int           `json:"chunk_size"`
	Years      int           `json:"years"`
	Schemes    []string      `json:"schemes"`
	DoneChunks []uint64      `json:"done_chunks"` // bitmap, chunk c at word c/64 bit c%64
	DoneTrials uint64        `json:"done_trials"` // tallied trials (excludes errored)
	Complete   bool          `json:"complete"`
	Results    []SchemeTally `json:"results"`
	Errors     []TrialError  `json:"errors,omitempty"`
}

// campaignHashInput is what the checkpoint config hash covers: everything
// that shapes the trial streams and the meaning of the accumulators.
// ChunkSize is always DefaultChunkSize; it stays in the input so that
// existing job IDs and checkpoints still match.
type campaignHashInput struct {
	Config    Config   `json:"config"`
	Schemes   []string `json:"schemes"`
	Trials    int      `json:"trials"`
	Seed      uint64   `json:"seed"`
	ChunkSize int      `json:"chunk_size"`
}

// accum is a campaign's integer accumulator: per-scheme tallies (ByYear
// cumulative), the tallied trial count, the voided trials, and the error
// budget those are held to.
type accum struct {
	results []SchemeTally
	trials  uint64
	errs    []TrialError
	budget  int
}

// fold adds worker w's last chunk. The worker tallies first-failure year
// buckets (one increment per failure, off the hot path's cumulative inner
// loop); the prefix sum here restores the cumulative-by-year semantics.
func (a *accum) fold(w *campaignWorker) error {
	for s := range a.results {
		t := &a.results[s]
		t.Failures += w.total[s]
		t.DUEs += w.dues[s]
		t.SDCs += w.sdcs[s]
		var run uint64
		for y := range t.ByYear {
			run += w.failures[s][y]
			t.ByYear[y] += run
		}
	}
	a.trials += uint64(w.hi-w.lo) - uint64(len(w.errs))
	a.errs = append(a.errs, w.errs...)
	return a.checkBudget()
}

// add folds a span result, whose tallies are already cumulative.
func (a *accum) add(res *ChunkResult) error {
	for s := range a.results {
		a.results[s].add(&res.Tallies[s])
	}
	a.trials += res.Trials
	a.errs = append(a.errs, res.Errors...)
	return a.checkBudget()
}

func (a *accum) checkBudget() error {
	if len(a.errs) <= a.budget {
		return nil
	}
	return fmt.Errorf("%w: %d trials panicked (budget %d); first: %v",
		ErrErrorBudgetExceeded, len(a.errs), a.budget, &a.errs[0])
}

// campaign is one campaign's domain layer over its chunk runner: the
// validated configuration, the accumulator the runner's lock guards, and
// the live metrics. RunCampaign, ChunkRunner and Merger are views of it.
type campaign struct {
	cfg     Config
	schemes []Scheme
	opts    CampaignOptions
	years   int
	hash    string

	acc accum
	run *chunkrun.Runner[campaignSnapshot]
	met campaignMetrics
}

// campaignMetrics holds pre-resolved obs handles; every field is nil (and
// every update a no-op) when CampaignOptions.Metrics is unset.
type campaignMetrics struct {
	trialsRequested *obs.Gauge
	trialsDone      *obs.Counter
	trialErrors     *obs.Counter
	chunksDone      *obs.Counter
	chunksTotal     *obs.Gauge
	errorBudget     *obs.Gauge

	// Per-scheme tallies, parallel to the campaign's scheme slice.
	failures []*obs.Counter
	dues     []*obs.Counter
	sdcs     []*obs.Counter

	// Judging and plan-shape telemetry, counted by each worker over a chunk
	// and published at merge.
	trialsEvaluated *obs.Counter // lanes judged
	laneBatches     *obs.Counter
	laneProbes      *obs.Counter
	batchRefills    *obs.Counter   // chunk plans built
	recsPerTrial    *obs.Histogram // records per planned trial
	skipRun         *obs.Histogram // empty-trial run length before each arrival
}

func newCampaignMetrics(r *obs.Registry, schemes []Scheme) campaignMetrics {
	m := campaignMetrics{
		trialsRequested: r.Gauge("campaign.trials_requested"),
		trialsDone:      r.Counter("campaign.trials_done"),
		trialErrors:     r.Counter("campaign.trial_errors"),
		chunksDone:      r.Counter("campaign.chunks_done"),
		chunksTotal:     r.Gauge("campaign.chunks_total"),
		errorBudget:     r.Gauge("campaign.error_budget"),
		trialsEvaluated: r.Counter("campaign.trials_evaluated"),
		laneBatches:     r.Counter("campaign.lane_batches"),
		laneProbes:      r.Counter("campaign.lane_probes"),
		batchRefills:    r.Counter("faultsim.gen.batch_refills"),
		recsPerTrial:    r.Histogram("faultsim.gen.records_per_trial", []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
		skipRun:         r.Histogram("faultsim.gen.skip_run", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}),
	}
	for _, s := range schemes {
		prefix := "campaign.scheme." + s.Name()
		m.failures = append(m.failures, r.Counter(prefix+".failures"))
		m.dues = append(m.dues, r.Counter(prefix+".dues"))
		m.sdcs = append(m.sdcs, r.Counter(prefix+".sdcs"))
	}
	return m
}

// newCampaign validates (cfg, schemes, opts), normalizes the checkpoint
// interval and builds the campaign's accumulator and runner. needHash
// forces the config-hash computation even when no CheckpointPath is set
// (distributed merging always needs it).
func newCampaign(cfg Config, schemes []Scheme, opts CampaignOptions, needHash bool) (*campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("faultsim: non-positive trial count %d", opts.Trials)
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("faultsim: no schemes to evaluate")
	}
	if len(schemes) > laneVecGroup {
		return nil, fmt.Errorf("faultsim: a campaign judges at most %d schemes, got %d", laneVecGroup, len(schemes))
	}
	if opts.CheckpointInterval <= 0 {
		opts.CheckpointInterval = DefaultCheckpointInterval
	}

	c := &campaign{
		cfg:     cfg,
		schemes: schemes,
		opts:    opts,
		years:   int(math.Ceil(cfg.LifetimeHours / HoursPerYear)),
	}
	if needHash {
		var err error
		c.hash, err = checkpoint.Hash(campaignHashInput{
			Config: cfg, Schemes: c.schemeNames(), Trials: opts.Trials, Seed: opts.Seed, ChunkSize: DefaultChunkSize,
		})
		if err != nil {
			return nil, err
		}
	}
	c.acc.results = make([]SchemeTally, len(schemes))
	for i := range c.acc.results {
		c.acc.results[i].ByYear = make([]uint64, c.years)
	}
	c.acc.budget = DefaultErrorBudget
	c.run = chunkrun.New(opts.Trials, DefaultChunkSize,
		chunkrun.Format{Kind: checkpointKind, Version: checkpointVersion, Hash: c.hash}, c)
	return c, nil
}

func (c *campaign) schemeNames() []string {
	names := make([]string, len(c.schemes))
	for i, s := range c.schemes {
		names[i] = s.Name()
	}
	return names
}

// RunCampaign executes a resilient Monte-Carlo campaign. It honours ctx
// cancellation by draining workers at chunk boundaries and returning the
// partial Report alongside ctx's error; with CheckpointPath set it also
// snapshots progress periodically and on cancellation, and Resume picks a
// campaign back up from such a snapshot. Completed runs return a Report
// covering exactly Trials trials (minus any panicking trials, which are
// voided and listed in Report.TrialErrors) and a nil error.
//
// Results are bit-identical for a fixed (cfg, schemes, Trials, Seed)
// whatever the worker count and whether or not the run was interrupted and
// resumed.
func RunCampaign(ctx context.Context, cfg Config, schemes []Scheme, opts CampaignOptions) (*Report, error) {
	// The config hash only guards snapshot compatibility; skip the
	// JSON+SHA-256 work for plain in-memory campaigns (Run calls this per
	// benchmark iteration).
	c, err := newCampaign(cfg, schemes, opts, opts.CheckpointPath != "")
	if err != nil {
		return nil, err
	}
	opts = c.opts
	if opts.Resume && opts.CheckpointPath != "" {
		if err := c.run.Load(opts.CheckpointPath); err != nil {
			return nil, err
		}
	}
	c.met = newCampaignMetrics(opts.Metrics, schemes)
	c.met.trialsRequested.Add(int64(opts.Trials))
	c.met.chunksTotal.Add(int64(c.run.Chunks()))
	c.met.errorBudget.Set(DefaultErrorBudget)
	if done := c.run.DoneChunks(); done > 0 {
		// Resumed progress is visible immediately, so live trials/s and
		// tallies start from the snapshot's frontier rather than zero.
		c.met.chunksDone.Add(uint64(done))
		c.met.trialsDone.Add(c.acc.trials)
		c.met.trialErrors.Add(uint64(len(c.acc.errs)))
		for s := range c.acc.results {
			c.met.failures[s].Add(c.acc.results[s].Failures)
			c.met.dues[s].Add(c.acc.results[s].DUEs)
			c.met.sdcs[s].Add(c.acc.results[s].SDCs)
		}
	}

	tables := newCampaignTables(&c.cfg, c.schemes)
	runErr := c.run.Run(ctx, chunkrun.Options{
		Workers:  opts.Workers,
		Path:     opts.CheckpointPath,
		Interval: opts.CheckpointInterval,
		OnChunk:  opts.OnChunk,
		Metrics:  opts.Metrics,
		Prefix:   "campaign",
	}, func() (chunkrun.Worker, error) {
		w := newCampaignWorker(tables, c.opts.Seed, c.years)
		w.c = c
		if c.opts.Metrics != nil {
			w.shape = true
			w.recsPerTrial, w.skipRun = c.met.recsPerTrial.Batch(), c.met.skipRun.Batch()
		}
		return w, nil
	})
	c.run.Lock()
	defer c.run.Unlock()
	return c.reportLocked(), runErr
}

// Snapshot assembles the checkpoint payload (chunkrun.Codec). The payload
// is canonical: trial errors are sorted by trial index, so two campaigns
// that merged the same chunks — in any order, on any number of workers or
// machines — produce byte-identical snapshots.
func (c *campaign) Snapshot(done []uint64, complete bool) campaignSnapshot {
	sortTrialErrs(c.acc.errs)
	return campaignSnapshot{
		Trials:     c.opts.Trials,
		Seed:       c.opts.Seed,
		ChunkSize:  DefaultChunkSize,
		Years:      c.years,
		Schemes:    c.schemeNames(),
		DoneChunks: done,
		DoneTrials: c.acc.trials,
		Complete:   complete,
		Results:    c.acc.results,
		Errors:     c.acc.errs,
	}
}

// Check validates a loaded payload's shape against the campaign
// (chunkrun.Codec).
func (c *campaign) Check(p *campaignSnapshot) ([]uint64, error) {
	if p.Years != c.years || len(p.Results) != len(c.acc.results) {
		return nil, fmt.Errorf("%d schemes over %d years, want %d over %d",
			len(p.Results), p.Years, len(c.acc.results), c.years)
	}
	for s := range p.Results {
		if n := len(p.Results[s].ByYear); n != c.years {
			return nil, fmt.Errorf("scheme %d has %d year buckets, want %d", s, n, c.years)
		}
	}
	return p.DoneChunks, nil
}

// Restore seeds the accumulator from a checked payload (chunkrun.Codec).
func (c *campaign) Restore(p *campaignSnapshot) {
	c.acc.results, c.acc.trials, c.acc.errs = p.Results, p.DoneTrials, p.Errors
}

// reportLocked assembles the Report from the accumulator. Caller holds the
// runner's lock.
func (c *campaign) reportLocked() *Report {
	sortTrialErrs(c.acc.errs)
	rep := &Report{
		Config:      c.cfg,
		Trials:      c.acc.trials,
		Requested:   uint64(c.opts.Trials),
		Years:       c.years,
		TrialErrors: append([]TrialError(nil), c.acc.errs...),
	}
	for s, scheme := range c.schemes {
		rep.Results = append(rep.Results, Result{
			SchemeName:     scheme.Name(),
			Trials:         c.acc.trials,
			Failures:       c.acc.results[s].Failures,
			DUEs:           c.acc.results[s].DUEs,
			SDCs:           c.acc.results[s].SDCs,
			FailuresByYear: append([]uint64(nil), c.acc.results[s].ByYear...),
		})
	}
	return rep
}

// campaignTables is what a campaign's workers share: everything derived
// from the config and schemes alone — scheme classification, lane weight
// codes, the class table and samplers — built once per campaign and never
// written after, so a worker costs only its own scratch.
type campaignTables struct {
	eval *evalTables
	lane *laneTables
	gen  *genTables
	arr  arrivalSamplers
}

func newCampaignTables(cfg *Config, schemes []Scheme) *campaignTables {
	eval := newEvalTables(cfg, schemes)
	gen := newRunGenerator(cfg, eval).genTables
	return &campaignTables{eval: eval, lane: newLaneTables(eval), gen: gen, arr: newArrivalSamplers(gen)}
}

// chunkBuffers is a worker's per-chunk scratch: the chunk's plan, the
// lane batch its trials are packed into, and the evaluators' scratch.
// Workers borrow one from chunkPool for each chunk, so none is held between
// chunks or spans — a ChunkRunner keeps nothing that needs closing — and a
// steady stream of campaigns reuses the same few.
type chunkBuffers struct {
	plan  batchPlan
	batch LaneBatch
	ev    Evaluator
	lv    LaneEvaluator
}

var chunkPool = sync.Pool{New: func() any { return new(chunkBuffers) }}

// bind readies the buffers' evaluators for tables t and returns the lane
// evaluator; it rebinds them, reusing their memory, only when the buffers
// last served another campaign.
func (b *chunkBuffers) bind(t *campaignTables) *LaneEvaluator {
	if b.lv.laneTables != t.lane {
		b.ev.bind(t.eval)
		b.lv.bind(&b.ev, t.lane)
	}
	return &b.lv
}

// campaignWorker is one goroutine's campaign state: the chunk substream
// and the current chunk's tallies. Its scratch comes from chunkPool for
// one chunk at a time. Nothing here allocates per trial. Under RunCampaign
// it is the chunkrun.Worker of campaign c; a ChunkRunner folds its chunks
// itself and leaves c nil.
type campaignWorker struct {
	c     *campaign
	t     *campaignTables
	seed  uint64
	years int
	gen   generator
	rng   simrand.Source
	buf   *chunkBuffers  // borrowed for the current chunk; nil between chunks
	lv    *LaneEvaluator // buf's, bound to t
	stats laneStats      // judging work since the last merge

	// The current chunk: its index, trial range [lo, hi) and head-of-
	// substream RNG state (every TrialError's replay anchor), and tallies.
	chunk, lo, hi int
	head          simrand.State
	failures      [][]uint64 // [scheme][year] first-failure buckets, this chunk; merge folds them cumulatively
	total         []uint64
	dues          []uint64
	sdcs          []uint64
	errs          []TrialError

	// Plan-shape telemetry, counted only when metrics are attached.
	shape                 bool
	recsPerTrial, skipRun obs.HistogramBatch
}

func newCampaignWorker(t *campaignTables, seed uint64, years int) *campaignWorker {
	n := len(t.eval.schemes)
	w := &campaignWorker{
		t:        t,
		seed:     seed,
		years:    years,
		gen:      generator{genTables: t.gen},
		failures: make([][]uint64, n),
	}
	buckets := make([]uint64, n*years)
	for s := range w.failures {
		w.failures[s] = buckets[s*years : (s+1)*years : (s+1)*years]
	}
	tallies := make([]uint64, 3*n)
	w.total, w.dues, w.sdcs = tallies[:n:n], tallies[n:2*n:2*n], tallies[2*n:]
	return w
}

// RunChunk evaluates trials [lo, hi) of chunk c into the worker's tallies:
// it plans the whole chunk, packs the planned trials into lane batches and
// judges each batch as it fills. Trials outside the plan drew no faults;
// an empty trial survives every scheme unless scaling faults meet a
// fleet without On-Die ECC, and then every trial fails as an SDC at hour 0
// whatever it drew, so such a chunk is tallied without a plan. A panic
// inside scheme code is contained per lane by the LaneEvaluator; a panic
// escaping to this frame is a generation failure and propagates (recovery
// there could not keep the RNG stream deterministic).
func (w *campaignWorker) RunChunk(c, lo, hi int) {
	w.chunk, w.lo, w.hi = c, lo, hi
	// TrialError holds heap references (Faults slice, panic strings);
	// truncating without clearing would keep every past chunk's worst-case
	// error payloads reachable through the backing array.
	clear(w.errs)
	w.errs = w.errs[:0]
	clear(w.total)
	clear(w.dues)
	clear(w.sdcs)
	for s := range w.failures {
		clear(w.failures[s])
	}
	if w.t.eval.scalingFatal {
		n := uint64(hi - lo)
		for s := range w.total {
			w.total[s], w.sdcs[s], w.failures[s][0] = n, n, n
		}
		return
	}
	// Substream (seed, c): the chunk's randomness is independent of which
	// worker runs it and of every other chunk.
	w.rng.SeedStream(w.seed, uint64(c))
	w.gen.resetEvents()
	w.head = w.rng.State()
	w.buf = chunkPool.Get().(*chunkBuffers)
	w.lv = w.buf.bind(w.t)
	defer func() {
		w.stats.add(w.lv.stats)
		w.lv.stats = laneStats{}
		chunkPool.Put(w.buf)
		w.buf, w.lv = nil, nil
	}()
	w.buf.plan.build(w.gen.genTables, &w.t.arr, &w.rng, hi-lo)
	if w.shape {
		w.observePlan(&w.buf.plan)
	}
	w.buf.batch.Reset()
	w.packPlanned()
	w.flushBatch()
}

// Fold adds the last chunk to the campaign's accumulator (chunkrun.Worker).
func (w *campaignWorker) Fold() error { return w.c.acc.fold(w) }

// Publish advances the live tallies by the last chunk (chunkrun.Worker):
// atomic adds only, outside the runner's lock and far off the per-trial
// hot path.
func (w *campaignWorker) Publish() {
	m := &w.c.met
	m.chunksDone.Inc()
	m.trialsDone.Add(uint64(w.hi-w.lo) - uint64(len(w.errs)))
	m.trialErrors.Add(uint64(len(w.errs)))
	for s := range m.failures {
		m.failures[s].Add(w.total[s])
		m.dues[s].Add(w.dues[s])
		m.sdcs[s].Add(w.sdcs[s])
	}
	m.trialsEvaluated.Add(w.stats.lanes)
	m.laneBatches.Add(w.stats.batches)
	m.laneProbes.Add(w.stats.probes)
	w.stats = laneStats{}
	if !w.t.eval.scalingFatal {
		m.batchRefills.Inc()
	}
	w.recsPerTrial.Flush()
	w.skipRun.Flush()
}

// packPlanned packs the chunk's planned trials into lane batches. Trials
// outside the plan drew no faults, so they tally nothing and get no lane.
func (w *campaignWorker) packPlanned() {
	p, b, lv, g, rng := &w.buf.plan, &w.buf.batch, w.lv, &w.gen, &w.rng
	// emitTrial and commitDigested are open-coded: the loop visits every
	// planned trial in order, so recEnd[i-1] is just where the previous
	// iteration stopped, and keeping the recs/lrs slice headers and the
	// lane count in locals spares a load+store per record. The locals sync
	// back to the batch at every flush boundary (flushBatch resets the
	// batch) and at the end.
	classes, lifetime := g.classes, g.cfg.LifetimeHours
	rLo := int32(0)
	recs, lrs, lanes := b.recs, b.lrs, b.lanes
	for i := 0; i < p.emitted(); i++ {
		n0 := len(recs)
		for r := rLo; r < p.recEnd[i]; r++ {
			recs = g.emitPlaced(rng, recs, classes[p.class[r]],
				p.u01[r]*lifetime, int(p.ch[r]), int(p.rk[r]), int(p.chip[r]))
		}
		rLo = p.recEnd[i]
		// Pre-judged survivors: most planned trials hold one record, and
		// when its signature is overweight for no scheme the lane would
		// sail through EvaluateBatch without setting a fail bit. Dropping
		// it here skips the mask pass and the flush for over half the
		// stream at stock rates; outcomes are untouched because a
		// surviving lane tallies nothing. The record is digested into a
		// local first — cache-hot, and survivors never touch lrs at all.
		if len(recs) == n0+1 {
			r := &recs[n0]
			sig := recSig(r)
			if lv.singleSurvives(sig) {
				recs = recs[:n0]
				continue
			}
			lrs = append(lrs, digestRecordSig(r, sig))
		} else {
			for ri := n0; ri < len(recs); ri++ {
				lrs = append(lrs, digestRecord(&recs[ri]))
			}
		}
		b.trial[lanes] = w.lo + int(p.trialPos[i])
		b.state[lanes] = w.head
		lanes++
		b.offs[lanes] = int32(len(recs))
		if lanes == LaneWidth {
			b.recs, b.lrs, b.lanes = recs, lrs, lanes
			w.flushBatch()
			recs, lrs, lanes = b.recs, b.lrs, b.lanes
		}
	}
	b.recs, b.lrs, b.lanes = recs, lrs, lanes
}

// flushBatch judges the pending lane batch and folds its failure masks
// into the chunk tallies, popping mask bits instead of scanning per-trial
// outcomes. Voided (panicked) lanes are excluded from every scheme's
// tallies and recorded as TrialErrors.
func (w *campaignWorker) flushBatch() {
	b := &w.buf.batch
	if b.Lanes() == 0 {
		return
	}
	lv := w.lv
	lv.EvaluateBatch(b)
	valid := b.activeMask() &^ b.voided
	for s := range w.total {
		fm := lv.fail[s] & valid
		w.total[s] += uint64(bits.OnesCount64(fm))
		w.dues[s] += uint64(bits.OnesCount64(lv.due[s] & valid))
		w.sdcs[s] += uint64(bits.OnesCount64(lv.sdc[s] & valid))
		for m := fm; m != 0; m &= m - 1 {
			L := bits.TrailingZeros64(m)
			yr := int(lv.outs[s*LaneWidth+L].FailTime * invHoursPerYear)
			if yr >= w.years {
				yr = w.years - 1
			}
			w.failures[s][yr]++
		}
	}
	for m := b.voided; m != 0; m &= m - 1 {
		L := bits.TrailingZeros64(m)
		planIdx, planned := slices.BinarySearch(w.buf.plan.trialPos, int32(b.trial[L]-w.lo))
		if !planned {
			planIdx = -1
		}
		w.errs = append(w.errs, TrialError{
			Trial:       b.trial[L],
			Chunk:       w.chunk,
			RNGState:    b.state[L],
			ChunkTrials: w.hi - w.lo,
			PlanIndex:   planIdx,
			Faults:      append([]FaultRecord(nil), b.LaneFaults(L)...),
			PanicValue:  b.panicVal[L],
			Stack:       b.stack[L],
		})
		// The batch returns to a shared pool; drop the panic payload.
		b.panicVal[L], b.stack[L] = "", ""
	}
	b.Reset()
}

// observePlan counts the chunk plan's shape: the empty-trial run before
// each arrival and the records of each planned trial.
func (w *campaignWorker) observePlan(p *batchPlan) {
	for _, r := range p.runs {
		w.skipRun.Observe(float64(r.Skip))
	}
	prev := int32(0)
	for _, end := range p.recEnd {
		w.recsPerTrial.Observe(float64(end - prev))
		prev = end
	}
}
