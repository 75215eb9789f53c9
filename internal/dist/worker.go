package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// The retry backoff after errors, 429 and 503 runs from backoffMin to
// backoffMax.
const (
	backoffMin = 50 * time.Millisecond
	backoffMax = 5 * time.Second
)

// backoff is jittered exponential backoff: each step doubles the base
// delay up to backoffMax, then randomises within [delay/2, delay] so a
// fleet of workers retrying against a recovering coordinator doesn't
// stampede in lockstep. The zero value starts at backoffMin.
type backoff struct {
	cur time.Duration
}

func (b *backoff) next() time.Duration {
	if b.cur == 0 {
		b.cur = backoffMin
	} else if b.cur < backoffMax {
		b.cur = min(2*b.cur, backoffMax)
	}
	half := b.cur / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

func (b *backoff) reset() { b.cur = 0 }

// sleepCtx sleeps for d or until ctx is done, reporting which.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// WorkerOptions parameterises NewWorker.
type WorkerOptions struct {
	// ID names the worker in lease traffic (logs/metrics on the
	// coordinator side). Empty selects "worker".
	ID string
	// Coordinator is the base URL of the coordinator, e.g.
	// "http://127.0.0.1:7600".
	Coordinator string
	// Parallel is the worker's lease loop count and each unit's goroutine
	// count; 0 selects 1. A unit's span runs on its loop's goroutine plus
	// helpers up to Parallel in all (faultsim.ChunkRunner.RunSpan), so a
	// lone unit runs on every core. With all Parallel loops busy up to
	// Parallel² goroutines exist, but only GOMAXPROCS run at once: the Go
	// scheduler shares the cores among them, and a goroutine borrows chunk
	// buffers only while its chunk runs.
	Parallel int
	// Client overrides the HTTP client (chaos tests inject a faulty
	// transport here). Nil selects a plain client.
	Client *http.Client
	// Metrics, when non-nil, publishes worker counters under "dist.worker_*".
	Metrics *obs.Registry
}

// Worker leases work units from a coordinator, evaluates them with
// faultsim.ChunkRunner, and reports results back, retrying with jittered
// exponential backoff across coordinator outages. Its lease requests are
// held at the coordinator until a unit is free, so an idle worker waits
// without polling. Each unit fans out over Parallel goroutines and the Go
// scheduler shares the cores among the units in flight, so a core a
// finished unit frees goes to the spans still running. It holds no
// durable state: everything it computes can be recomputed, so
// crash-stopping a worker at any instant is always safe.
type Worker struct {
	opts WorkerOptions
	base string
	hc   *http.Client

	unitsDone atomic.Int64
	leaseFail *obs.Counter
	unitsC    *obs.Counter
	retriesC  *obs.Counter

	// runners holds each lease loop's runner cache, one per loop.
	runners []jobRunner
}

// jobRunner is a lease loop's runner cache: the ChunkRunner of the job the
// loop served last, with the helper workers its widest span has built. A
// lease for another job replaces it, so a long-lived worker holds at most
// one runner per loop however many jobs it has served. (A
// faultsim.ChunkRunner serves one caller at a time, so parallel loops
// never share one.)
type jobRunner struct {
	jobID string
	r     *faultsim.ChunkRunner
}

// get returns the ChunkRunner for the lease's job, building it from the
// lease's spec, with parallel goroutines per span, when the loop last
// served another job.
func (c *jobRunner) get(lease *Lease, parallel int) (*faultsim.ChunkRunner, error) {
	if c.r != nil && c.jobID == lease.JobID {
		return c.r, nil
	}
	c.jobID, c.r = "", nil // release the previous job's runner first
	schemes, err := lease.Spec.ResolveSchemes()
	if err != nil {
		return nil, err
	}
	opts := lease.Spec.CampaignOptions()
	opts.Workers = parallel
	r, err := faultsim.NewChunkRunner(lease.Spec.Config, schemes, opts)
	if err != nil {
		return nil, err
	}
	c.jobID, c.r = lease.JobID, r
	return r, nil
}

// NewWorker builds a worker; Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		opts.ID = "worker"
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	w := &Worker{
		opts:      opts,
		hc:        opts.Client,
		leaseFail: opts.Metrics.Counter("dist.worker_lease_failures"),
		unitsC:    opts.Metrics.Counter("dist.worker_units_done"),
		retriesC:  opts.Metrics.Counter("dist.worker_retries"),
	}
	if w.hc == nil {
		w.hc = &http.Client{}
	}
	w.base = opts.Coordinator
	return w
}

// Base returns the coordinator base URL.
func (w *Worker) Base() string { return w.base }

// UnitsDone reports how many units this worker has settled (merged or
// acknowledged duplicate).
func (w *Worker) UnitsDone() int { return int(w.unitsDone.Load()) }

// Run executes the lease loops until ctx ends. It returns nil when ctx
// was cancelled, and ctx's error otherwise.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	w.runners = make([]jobRunner, w.opts.Parallel)
	for i := range w.runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.leaseLoop(ctx, &w.runners[i])
		}()
	}
	wg.Wait()
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// leaseLoop is one lease → compute → complete cycle runner, with its own
// runner cache.
func (w *Worker) leaseLoop(ctx context.Context, cache *jobRunner) {
	var bo backoff
	for ctx.Err() == nil {
		lease, retryAfter, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.leaseFail.Inc()
			w.retriesC.Inc()
			if sleepCtx(ctx, maxDuration(retryAfter, bo.next())) != nil {
				return
			}
			continue
		}
		bo.reset()
		if lease == nil {
			continue // the hold ended with no unit free: ask again
		}
		if err := w.runUnit(ctx, cache, lease); err != nil {
			if ctx.Err() != nil {
				return
			}
			continue
		}
		w.unitsDone.Add(1)
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// runUnit computes a leased span and reports it.
func (w *Worker) runUnit(ctx context.Context, cache *jobRunner, lease *Lease) error {
	r, err := cache.get(lease, w.opts.Parallel)
	if err != nil {
		// A spec this binary cannot evaluate; drop the lease and let it
		// expire for someone else.
		return err
	}
	res, err := r.RunSpan(ctx, lease.Lo, lease.Hi)
	if err != nil {
		return err
	}
	w.unitsC.Inc()
	return w.complete(ctx, &CompleteRequest{
		WorkerID: w.opts.ID,
		JobID:    lease.JobID,
		Unit:     lease.Unit,
		Token:    lease.Token,
		Result:   *res,
	})
}

// lease asks the coordinator for a unit, to be held for up to MaxWait
// until one is free. A 204 (the hold ended first) returns (nil, 0, nil); a
// 429/503 returns the server's Retry-After as a floor for the caller's
// backoff.
func (w *Worker) lease(ctx context.Context) (*Lease, time.Duration, error) {
	var lease Lease
	req := &LeaseRequest{WorkerID: w.opts.ID, WaitMillis: MaxWait.Milliseconds()}
	code, retryAfter, err := w.postJSON(ctx, "/v1/lease", req, &lease)
	if err != nil {
		return nil, retryAfter, err
	}
	if code == http.StatusNoContent {
		return nil, 0, nil
	}
	return &lease, 0, nil
}

// complete reports a unit, retrying transient failures until the unit is
// settled. A 404 (the coordinator restarted and no longer knows the job)
// settles the unit too: the submitting client will resubmit the spec and
// re-derive the same job.
func (w *Worker) complete(ctx context.Context, req *CompleteRequest) error {
	var bo backoff
	for {
		var resp CompleteResponse
		code, retryAfter, err := w.postJSON(ctx, "/v1/complete", req, &resp)
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case code == http.StatusNotFound || code == http.StatusBadRequest:
			return fmt.Errorf("dist: unit %d of job %.12s rejected: %w", req.Unit, req.JobID, err)
		}
		w.retriesC.Inc()
		if sleepCtx(ctx, maxDuration(retryAfter, bo.next())) != nil {
			return ctx.Err()
		}
	}
}

// postJSON POSTs a JSON body and decodes a JSON response. Non-2xx statuses
// return an error carrying the server's error body; the returned code and
// Retry-After let callers classify it. Connection errors return code 0.
func (w *Worker) postJSON(ctx context.Context, path string, body, into any) (code int, retryAfter time.Duration, err error) {
	return postJSON(ctx, w.hc, w.Base(), path, body, into)
}

// postJSON is the shared wire helper for Worker and Client.
func postJSON(ctx context.Context, hc *http.Client, base, path string, body, into any) (int, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close() //nolint:errcheck
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return resp.StatusCode, retryAfter, fmt.Errorf("dist: %s: %s", path, readError(resp.Body, resp.StatusCode))
	}
	if resp.StatusCode == http.StatusNoContent || into == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode, retryAfter, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, retryAfter, fmt.Errorf("dist: decoding %s response: %w", path, err)
	}
	return resp.StatusCode, retryAfter, nil
}

// getJSON GETs a JSON document.
func getJSON(ctx context.Context, hc *http.Client, base, path string, into any) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close() //nolint:errcheck
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, retryAfter, fmt.Errorf("dist: %s: %s", path, readError(resp.Body, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, retryAfter, fmt.Errorf("dist: decoding %s response: %w", path, err)
	}
	return resp.StatusCode, retryAfter, nil
}

// readError extracts the JSON error body, falling back to the status code.
func readError(r io.Reader, code int) string {
	var eb errorBody
	if err := json.NewDecoder(io.LimitReader(r, 4096)).Decode(&eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	return "HTTP " + strconv.Itoa(code)
}

func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if s, err := strconv.Atoi(h); err == nil && s >= 0 {
		return time.Duration(s) * time.Second
	}
	return 0
}
