package faultsim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"xedsim/internal/chunkrun"
)

// This file is the campaign engine's distribution seam: the chunk-level
// primitives a coordinator/worker deployment is built from. RunCampaign
// stays the single-process front door; a distributed run decomposes into
//
//	ChunkRunner — a worker-side executor that evaluates any contiguous
//	              span of chunks and returns its integer tallies, and
//	Merger      — a coordinator-side accumulator that folds ChunkResults
//	              (in any arrival order, rejecting duplicates) into the
//	              same state RunCampaign builds in-process.
//
// Both are thin views over the campaign's domain layer and its
// chunkrun.Runner, the same ones RunCampaign drives, which is what makes
// the headline invariant cheap to state and test: for a fixed (Config,
// schemes, Trials, Seed), a Merger that has merged every chunk
// exactly once holds byte-identical checkpoint snapshots — and therefore
// bit-identical Reports — to a local RunCampaign, no matter how chunks
// were partitioned, scheduled, retried or duplicated in between. Chunk
// streams are pure functions of (seed, chunk index) and tallies compose by
// integer addition, so the only failure mode left to defend against is
// double-merging, which Merger.Merge rejects by chunk bitmap.

// ErrDuplicateChunks reports a merge of a span whose chunks were all
// already merged — the expected outcome of retries and duplicated
// deliveries, surfaced as a distinct sentinel so callers can acknowledge
// idempotently rather than fail.
var ErrDuplicateChunks = chunkrun.ErrDuplicate

// ChunkResult is one worker's tallies over the contiguous chunk span
// [Lo, Hi): the wire unit of a distributed campaign. It is self-describing
// enough for the Merger to validate shape and trial accounting before
// trusting it.
type ChunkResult struct {
	// Lo and Hi bound the chunk span [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Trials counts the tallied trials in the span: the span's trial range
	// minus the voided (panicked) ones listed in Errors.
	Trials uint64 `json:"trials"`
	// Tallies holds one SchemeTally per campaign scheme, in scheme order.
	Tallies []SchemeTally `json:"tallies"`
	// Errors lists the span's voided trials.
	Errors []TrialError `json:"errors,omitempty"`
}

// ChunkRunner evaluates chunk spans of one campaign on behalf of a remote
// coordinator. One caller uses it at a time (one runner per worker loop).
// RunSpan computes on the caller's goroutine, exactly like a RunCampaign
// worker goroutine; RunSpanOn also fans a span out over the cores a Cores
// lends it, each helper goroutine with its own campaignWorker over the
// runner's shared tables, as RunCampaign's workers share them. Workers
// borrow their per-chunk buffers and evaluator scratch from a
// package-level pool only while a chunk runs, so an idle runner holds
// little and needs no closing. Trial panics are voided and reported in the
// ChunkResult; a generation panic is recovered on no goroutine, so it ends
// the process (it cannot be contained without desynchronising the RNG
// stream).
type ChunkRunner struct {
	c *campaign
	w *campaignWorker

	// The current span's chunk counter, and the helpers it has started.
	// helpers grows to the widest span the runner has run, on first use,
	// so NewChunkRunner builds none.
	next    atomic.Int64
	wg      sync.WaitGroup
	helpers []*spanHelper
}

// spanHelper is one helper goroutine's campaign worker and the tallies of
// the chunks it claims in a span.
type spanHelper struct {
	w   *campaignWorker
	acc accum
}

// Cores lends a span the idle cores of its host. RunSpanOn takes one with
// TryAcquire for each helper goroutine it starts; a helper gives it back
// with Release when the span runs out of chunks, or at its next chunk
// boundary once Wanted reports that another computation waits for a core.
type Cores interface {
	TryAcquire() bool
	Wanted() bool
	Release()
}

// NewChunkRunner builds a runner for the campaign shaped by (cfg, schemes,
// opts). Only Trials and Seed of opts are meaningful here; scheduling
// fields (Workers, CheckpointPath, OnChunk, Metrics) belong to the
// caller's loop.
func NewChunkRunner(cfg Config, schemes []Scheme, opts CampaignOptions) (*ChunkRunner, error) {
	c, err := newCampaign(cfg, schemes, opts, true)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{
		c: c,
		w: newCampaignWorker(newCampaignTables(&c.cfg, c.schemes), c.opts.Seed, c.years),
	}, nil
}

// NumChunks returns the campaign's total chunk count.
func (r *ChunkRunner) NumChunks() int { return r.c.run.Chunks() }

// RunSpan evaluates chunks [lo, hi) on the caller's goroutine and returns
// their tallies. It checks ctx before each chunk: a cancellation mid-span
// returns ctx's error and no result (partial spans must never be merged).
// Spans are independent — any partition of [0, NumChunks) into spans, run
// in any order on any number of runners, yields tallies that merge to the
// same campaign state.
func (r *ChunkRunner) RunSpan(ctx context.Context, lo, hi int) (*ChunkResult, error) {
	return r.RunSpanOn(ctx, lo, hi, nil)
}

// RunSpanOn is RunSpan on the caller's goroutine plus one helper goroutine
// for each core cores lends at the start of the span, up to one per chunk
// after the first; nil cores lend none. The goroutines claim chunks from
// one counter, and their tallies sum to a ChunkResult equal to RunSpan's.
// It returns once every helper has stopped and released its core.
func (r *ChunkRunner) RunSpanOn(ctx context.Context, lo, hi int, cores Cores) (*ChunkResult, error) {
	run := r.c.run
	if lo < 0 || hi <= lo || hi > run.Chunks() {
		return nil, fmt.Errorf("faultsim: chunk span [%d, %d) out of range [0, %d)", lo, hi, run.Chunks())
	}
	years := r.c.years
	res := &ChunkResult{Lo: lo, Hi: hi, Tallies: make([]SchemeTally, len(r.c.schemes))}
	byYear := make([]uint64, len(res.Tallies)*years)
	for s := range res.Tallies {
		res.Tallies[s].ByYear = byYear[s*years : (s+1)*years : (s+1)*years]
	}
	// The span folds chunks as RunCampaign does; the Merger holds all
	// spans to the campaign's error budget together.
	acc := accum{results: res.Tallies, budget: math.MaxInt}
	r.next.Store(int64(lo))
	helpers := 0
	for ; cores != nil && helpers < hi-lo-1 && cores.TryAcquire(); helpers++ {
		h := r.helper(helpers)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer cores.Release()
			r.claim(ctx, h.w, &h.acc, hi, cores)
		}()
	}
	// Only the caller's goroutine never yields, so the span is whole once
	// it finds the counter past hi and the helpers have finished.
	err := r.claim(ctx, r.w, &acc, hi, nil)
	r.wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, h := range r.helpers[:helpers] {
		for s := range acc.results {
			acc.results[s].add(&h.acc.results[s])
		}
		acc.trials += h.acc.trials
		acc.errs = append(acc.errs, h.acc.errs...)
	}
	if helpers > 0 && len(acc.errs) > 1 {
		sortTrialErrs(acc.errs)
	}
	res.Trials, res.Errors = acc.trials, acc.errs
	return res, nil
}

// claim computes chunks from the span's counter on w, folding each into
// acc, until the counter passes hi or ctx ends, or, with cores set, until
// cores wants its core back at a chunk boundary.
func (r *ChunkRunner) claim(ctx context.Context, w *campaignWorker, acc *accum, hi int, cores Cores) error {
	run := r.c.run
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cores != nil && cores.Wanted() {
			return nil
		}
		c := int(r.next.Add(1) - 1)
		if c >= hi {
			return nil
		}
		tlo, thi := run.Bounds(c)
		w.RunChunk(c, tlo, thi)
		_ = acc.fold(w) // no budget, so it cannot fail
	}
}

// helper returns the runner's i-th span helper, reset for a new span and
// built on first use.
func (r *ChunkRunner) helper(i int) *spanHelper {
	if i == len(r.helpers) {
		h := &spanHelper{
			w:   newCampaignWorker(r.w.t, r.c.opts.Seed, r.c.years),
			acc: accum{results: make([]SchemeTally, len(r.c.schemes)), budget: math.MaxInt},
		}
		for s := range h.acc.results {
			h.acc.results[s].ByYear = make([]uint64, r.c.years)
		}
		r.helpers = append(r.helpers, h)
	}
	h := r.helpers[i]
	for s := range h.acc.results {
		t := &h.acc.results[s]
		t.Failures, t.DUEs, t.SDCs = 0, 0, 0
		clear(t.ByYear)
	}
	// The previous span's result owns copies of these errors; drop the
	// references the backing array still holds.
	clear(h.acc.errs)
	h.acc.trials, h.acc.errs = 0, h.acc.errs[:0]
	return h
}

// Merger folds ChunkResults into campaign state equivalent to a local
// RunCampaign over the same chunks. It is safe for concurrent use; every
// method takes the campaign runner's lock. Duplicate spans are rejected
// (not double-counted), which is what makes merging idempotent under
// retries, duplicated deliveries and lease re-dispatch.
type Merger struct {
	c *campaign
}

// NewMerger builds a merger for the campaign shaped by (cfg, schemes,
// opts). Only Trials and Seed of opts are meaningful; DefaultErrorBudget
// is enforced across all merged spans, aggregating voided trials from
// every worker.
func NewMerger(cfg Config, schemes []Scheme, opts CampaignOptions) (*Merger, error) {
	c, err := newCampaign(cfg, schemes, opts, true)
	if err != nil {
		return nil, err
	}
	return &Merger{c: c}, nil
}

// Hash returns the config hash guarding checkpoint compatibility — the same
// hash RunCampaign stamps into snapshots. Distributed deployments use it
// as the job identity: two submissions hashing equal are the same campaign
// and produce bit-identical results, so a completed result can be served
// from cache.
func (m *Merger) Hash() string { return m.c.hash }

// NumChunks returns the campaign's total chunk count.
func (m *Merger) NumChunks() int { return m.c.run.Chunks() }

// DoneChunks returns how many chunks have been merged.
func (m *Merger) DoneChunks() int { return m.c.run.DoneChunks() }

// DoneTrials returns how many trials have been tallied (voided trials
// excluded).
func (m *Merger) DoneTrials() uint64 {
	m.c.run.Lock()
	defer m.c.run.Unlock()
	return m.c.acc.trials
}

// TrialErrorCount returns the voided-trial total across all merged spans.
func (m *Merger) TrialErrorCount() int {
	m.c.run.Lock()
	defer m.c.run.Unlock()
	return len(m.c.acc.errs)
}

// SpanMerged reports whether every chunk of [lo, hi) has been merged.
func (m *Merger) SpanMerged(lo, hi int) bool { return m.c.run.SpanMerged(lo, hi) }

// Merge folds one span result into the campaign. It validates the result's
// shape and trial accounting against the campaign config, rejects
// duplicates with ErrDuplicateChunks (callers treat that as a successful
// no-op acknowledgement), and enforces the aggregated trial-error budget —
// a budget breach returns ErrErrorBudgetExceeded after folding, mirroring
// RunCampaign's merge semantics.
func (m *Merger) Merge(res *ChunkResult) error {
	if res == nil {
		return fmt.Errorf("faultsim: nil chunk result")
	}
	run := m.c.run
	if res.Lo < 0 || res.Hi <= res.Lo || res.Hi > run.Chunks() {
		return fmt.Errorf("faultsim: chunk span [%d, %d) out of range [0, %d)", res.Lo, res.Hi, run.Chunks())
	}
	if len(res.Tallies) != len(m.c.schemes) {
		return fmt.Errorf("faultsim: result has %d scheme tallies, campaign has %d schemes", len(res.Tallies), len(m.c.schemes))
	}
	for s := range res.Tallies {
		if len(res.Tallies[s].ByYear) != m.c.years {
			return fmt.Errorf("faultsim: scheme %d tally has %d year buckets, campaign has %d", s, len(res.Tallies[s].ByYear), m.c.years)
		}
	}
	lo, _ := run.Bounds(res.Lo)
	_, hi := run.Bounds(res.Hi - 1)
	if want := uint64(hi-lo) - uint64(len(res.Errors)); res.Trials != want {
		return fmt.Errorf("faultsim: span [%d, %d) reports %d trials, config implies %d", res.Lo, res.Hi, res.Trials, want)
	}
	return run.MergeSpan(res.Lo, res.Hi, func() error { return m.c.acc.add(res) })
}

// Report assembles the campaign Report from the merged state — for a
// Complete merger, bit-identical to the local RunCampaign Report.
func (m *Merger) Report() *Report {
	m.c.run.Lock()
	defer m.c.run.Unlock()
	return m.c.reportLocked()
}

// SnapshotBytes returns the merged state as canonical checkpoint envelope
// bytes — exactly what RunCampaign's Save writes for the same state, which
// is how distributed results are proven bit-identical: compare these bytes
// against a local run's checkpoint file.
func (m *Merger) SnapshotBytes() ([]byte, error) { return m.c.run.Bytes() }

// Save writes the merged state to path in the campaign checkpoint format
// (atomic + durable, config-hash-guarded). A saved merger can be restored
// by Load — or resumed by a local RunCampaign with the same config, which
// is the escape hatch when a coordinator is retired mid-job.
func (m *Merger) Save(path string) error { return m.c.run.Save(path) }

// Load restores merged state from a checkpoint written by Save (or by a
// local RunCampaign of the same campaign). A missing file leaves the
// merger empty and returns nil; a snapshot from any other configuration,
// or one whose payload does not fit the campaign, is refused with the
// checkpoint sentinel errors and leaves the merger as it was.
func (m *Merger) Load(path string) error { return m.c.run.Load(path) }

// sortTrialErrs orders trial errors canonically (by trial index).
func sortTrialErrs(errs []TrialError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Trial < errs[j].Trial })
}
