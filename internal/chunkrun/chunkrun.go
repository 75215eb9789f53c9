// Package chunkrun is the deterministic chunk runner under every
// Monte-Carlo computation in xedsim: the reliability campaign, the fleet
// simulator and the campaign service's merger.
//
// A computation splits its items (trials, DIMMs) into fixed-size chunks,
// and chunk c draws only from the (seed, c) substream, so a chunk's result
// is a pure function of the configuration and c. The runner owns what that
// contract needs and nothing of the domain:
//
//   - an atomic chunk queue that hands each chunk to one worker goroutine;
//   - the done bitmap and its count, and the lock merges take;
//   - span merges that reject duplicates and partial overlaps;
//   - periodic and final checkpoint saves, and loads that check the whole
//     payload before they change any state;
//   - the serialised progress callback, and cancel-on-fatal.
//
// A domain supplies its worker's chunk computation, the fold of a chunk into
// its accumulator, its live-metric publication and its checkpoint payload.
// Folds are integer additions, so any schedule of chunks over any number of
// workers, interrupted and resumed any number of times, ends in the same
// accumulator and the same checkpoint bytes.
package chunkrun

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/obs"
)

// ErrDuplicate reports a merge of a span whose chunks were all merged
// already: the expected outcome of retries and duplicated deliveries, which
// callers acknowledge rather than fail.
var ErrDuplicate = errors.New("chunkrun: chunk span already merged")

// Codec converts between a domain's accumulator and its checkpoint payload.
type Codec[P any] interface {
	// Snapshot returns the payload for the accumulator and the done bitmap;
	// complete reports that every chunk is done. The runner's lock is held
	// until the payload is encoded, so it may alias the accumulator.
	Snapshot(done []uint64, complete bool) P
	// Check validates a loaded payload against the configuration and
	// returns its done bitmap. It must change no state.
	Check(p *P) (done []uint64, err error)
	// Restore seeds the accumulator from a payload Check accepted. The
	// runner's lock is held.
	Restore(p *P)
}

// Format frames a runner's checkpoints: the envelope's payload kind and
// version, and the hash of the configuration that produced it.
type Format struct {
	Kind    string
	Version int
	Hash    string
}

// Worker is one goroutine's chunk executor. A chunk is the unit of
// cancellation: the runner checks its context before it claims a chunk, and
// a claimed chunk runs to completion and merges.
type Worker interface {
	// RunChunk computes chunk c, items [lo, hi).
	RunChunk(c, lo, hi int)
	// Fold adds the chunk RunChunk last computed to the accumulator; the
	// runner's lock is held. A non-nil error is fatal to the run.
	Fold() error
	// Publish reports that chunk to live metrics, after the lock is
	// released.
	Publish()
}

// Options schedule one Run.
type Options struct {
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS. No more
	// goroutines start than there are chunks.
	Workers int
	// Path, when non-empty, is where Run saves a snapshot every Interval
	// and once at the end.
	Path     string
	Interval time.Duration
	// OnChunk, when non-nil, observes progress after each merged chunk, and
	// once at the start when the runner was restored with progress. Calls
	// are serialised and their done counts never decrease.
	OnChunk func(done, total int)
	// Metrics, when non-nil, receives the save count and latency as
	// <Prefix>.checkpoint.saves and <Prefix>.checkpoint.save_ms.
	Metrics *obs.Registry
	Prefix  string
}

// Runner tracks which chunks of one computation are done and drives the
// rest. Its lock guards the domain's accumulator too: Codec calls and
// Worker.Fold run under it, and domain readers take it with Lock.
type Runner[P any] struct {
	codec  Codec[P]
	format Format
	items  int
	size   int
	chunks int

	next atomic.Int64 // the chunk queue: indices in [0, chunks)

	mu       sync.Mutex
	done     []uint64 // bitmap, chunk c at word c/64 bit c%64
	count    int
	failed   error // the first fatal error of a Run
	lastSave time.Time
	saves    *obs.Counter
	saveMS   *obs.Histogram

	onChunkMu sync.Mutex
	reported  int // the last done count OnChunk saw
}

// New returns a runner over items split into chunks of size, with no chunk
// done. The codec's Snapshot and Restore read and write the accumulator the
// runner's lock guards.
func New[P any](items, size int, f Format, codec Codec[P]) *Runner[P] {
	chunks := (items + size - 1) / size
	return &Runner[P]{
		codec:  codec,
		format: f,
		items:  items,
		size:   size,
		chunks: chunks,
		done:   make([]uint64, (chunks+63)/64),
	}
}

// Chunks returns the chunk count.
func (r *Runner[P]) Chunks() int { return r.chunks }

// Bounds returns the item range [lo, hi) of chunk c.
func (r *Runner[P]) Bounds(c int) (lo, hi int) {
	lo = c * r.size
	return lo, min(lo+r.size, r.items)
}

// Lock takes the runner's lock, which also guards the accumulator, for a
// domain reader.
func (r *Runner[P]) Lock() { r.mu.Lock() }

// Unlock releases the runner's lock.
func (r *Runner[P]) Unlock() { r.mu.Unlock() }

// DoneChunks returns how many chunks are done.
func (r *Runner[P]) DoneChunks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// SpanMerged reports whether every chunk of [lo, hi) is done.
func (r *Runner[P]) SpanMerged(lo, hi int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doneInLocked(lo, hi) == hi-lo
}

func (r *Runner[P]) doneInLocked(lo, hi int) int {
	n := 0
	for c := lo; c < hi; c++ {
		if r.done[c/64]&(1<<(c%64)) != 0 {
			n++
		}
	}
	return n
}

func (r *Runner[P]) markLocked(c int) {
	r.done[c/64] |= 1 << (c % 64)
	r.count++
}

// MergeSpan folds the chunk span [lo, hi), which must lie in
// [0, Chunks()), under the runner's lock. A span already merged returns
// ErrDuplicate and a partly merged one an error, both without calling fold.
// Otherwise fold runs, the span's chunks are marked done, and fold's error
// is returned.
func (r *Runner[P]) MergeSpan(lo, hi int, fold func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch merged := r.doneInLocked(lo, hi); {
	case merged == hi-lo:
		return ErrDuplicate
	case merged != 0:
		// Spans are fixed when a job is laid out; a partial overlap means
		// the sender and the merger disagree about the layout.
		return fmt.Errorf("chunkrun: span [%d, %d) partially merged (%d of %d chunks)", lo, hi, merged, hi-lo)
	}
	err := fold()
	for c := lo; c < hi; c++ {
		r.markLocked(c)
	}
	return err
}

// Bytes returns the snapshot's envelope bytes: exactly what Save writes.
func (r *Runner[P]) Bytes() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.codec.Snapshot(r.done, r.count == r.chunks)
	return checkpoint.Marshal(r.format.Kind, r.format.Version, r.format.Hash, &p)
}

// Save writes the snapshot to path, atomically and durably.
func (r *Runner[P]) Save(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveLocked(path)
}

func (r *Runner[P]) saveLocked(path string) error {
	p := r.codec.Snapshot(r.done, r.count == r.chunks)
	start := time.Now()
	if err := checkpoint.Save(path, r.format.Kind, r.format.Version, r.format.Hash, &p); err != nil {
		return err
	}
	r.saves.Inc()
	r.saveMS.Observe(float64(time.Since(start).Microseconds()) / 1e3)
	r.lastSave = time.Now()
	return nil
}

// Load restores the runner and its accumulator from the snapshot at path.
// A missing file leaves both as they are and returns nil. The whole payload
// is checked before any state changes: a snapshot of another kind, version
// or configuration, a payload the codec refuses, or a done bitmap of the
// wrong length or with a bit at or past the chunk count is refused, and
// the runner is left as it was.
func (r *Runner[P]) Load(path string) error {
	var p P
	err := checkpoint.Load(path, r.format.Kind, r.format.Version, r.format.Hash, &p)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	done, err := r.codec.Check(&p)
	if err == nil {
		err = r.checkBitmap(done)
	}
	if err != nil {
		// The config hash covers everything that shapes the payload;
		// reaching here means the snapshot lies about its own hash input.
		return fmt.Errorf("%w: %s payload shape does not match its config: %v",
			checkpoint.ErrConfigMismatch, path, err)
	}
	r.codec.Restore(&p)
	copy(r.done, done)
	r.count = 0
	for _, w := range r.done {
		r.count += bits.OnesCount64(w)
	}
	return nil
}

func (r *Runner[P]) checkBitmap(done []uint64) error {
	if len(done) != len(r.done) {
		return fmt.Errorf("done bitmap has %d words, want %d", len(done), len(r.done))
	}
	if tail := r.chunks % 64; tail != 0 && done[len(done)-1]>>tail != 0 {
		return fmt.Errorf("done bitmap marks chunks at or past the chunk count %d", r.chunks)
	}
	return nil
}

// Run computes every chunk not yet done on o.Workers goroutines, each with
// its own Worker from newWorker, and returns when all are merged, ctx is
// cancelled, or an error is fatal. A Runner runs once. The first fatal
// error (a Worker.Fold or newWorker error, or a failed periodic save)
// cancels the other workers and wins over ctx's error; a fatal-free
// cancellation returns ctx's error. With o.Path set, Run ends with a save,
// whatever stopped it, so a later Load resumes from the frontier.
func (r *Runner[P]) Run(ctx context.Context, o Options, newWorker func() (Worker, error)) error {
	if o.Metrics != nil {
		r.saves = o.Metrics.Counter(o.Prefix + ".checkpoint.saves")
		r.saveMS = o.Metrics.Histogram(o.Prefix+".checkpoint.save_ms", []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000})
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, r.chunks)
	r.lastSave = time.Now()
	r.reported = r.count
	if o.OnChunk != nil && r.count > 0 {
		o.OnChunk(r.count, r.chunks)
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := newWorker()
			if err != nil {
				r.mu.Lock()
				r.failLocked(err)
				r.mu.Unlock()
				cancel()
				return
			}
			r.work(wctx, cancel, w, &o)
		}()
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.failed
	if err == nil {
		err = ctx.Err()
	}
	if o.Path != "" {
		if serr := r.saveLocked(o.Path); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func (r *Runner[P]) failLocked(err error) {
	if r.failed == nil {
		r.failed = err
	}
}

// work pulls chunks until the queue drains, ctx is cancelled or a merge
// turns fatal.
func (r *Runner[P]) work(ctx context.Context, cancel context.CancelFunc, w Worker, o *Options) {
	for ctx.Err() == nil {
		c := int(r.next.Add(1)) - 1
		if c >= r.chunks {
			return
		}
		// Chunks are claimed uniquely, so a chunk done here was restored
		// by Load; the lock only orders the read after it.
		r.mu.Lock()
		done := r.done[c/64]&(1<<(c%64)) != 0
		r.mu.Unlock()
		if done {
			continue
		}
		lo, hi := r.Bounds(c)
		w.RunChunk(c, lo, hi)
		if !r.merge(c, w, o) {
			cancel()
			return
		}
	}
}

// merge folds worker w's chunk c, saves when the interval has passed, and
// reports progress. It returns false once the run has failed.
func (r *Runner[P]) merge(c int, w Worker, o *Options) bool {
	r.mu.Lock()
	if err := w.Fold(); err != nil {
		r.failLocked(err)
	}
	r.markLocked(c)
	if o.Path != "" && time.Since(r.lastSave) >= o.Interval {
		if err := r.saveLocked(o.Path); err != nil {
			r.failLocked(err)
		}
	}
	done, failed := r.count, r.failed
	r.mu.Unlock()

	w.Publish()
	if o.OnChunk != nil {
		// Merges can reach here out of order; never report less than an
		// earlier call did.
		r.onChunkMu.Lock()
		r.reported = max(r.reported, done)
		o.OnChunk(r.reported, r.chunks)
		r.onChunkMu.Unlock()
	}
	return failed == nil
}
