package chunkrun

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"xedsim/internal/checkpoint"
)

// The runner's contract is tested here over a toy integer tally: chunk c
// adds value(i) for each of its items to a sum and counts itself in one of
// eight buckets. Campaign and fleet keep their domain tests.

const (
	toyItems = 1000
	toySize  = 7 // 143 chunks, the last one short
)

var errFatal = errors.New("toy: fatal fold")

func value(i int) uint64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 1
	x ^= x >> 31
	return x * 0xbf58476d1ce4e5b9 >> 40
}

type toySnap struct {
	Done     []uint64  `json:"done"`
	Complete bool      `json:"complete"`
	Sum      uint64    `json:"sum"`
	Buckets  [8]uint64 `json:"buckets"`
}

// toy is the accumulator and codec. failAt names a chunk whose fold is
// fatal (-1 for none); onFail runs when it is folded.
type toy struct {
	sum     uint64
	buckets [8]uint64
	failAt  int
	onFail  func()
	refuse  bool // Check refuses every payload
}

func (t *toy) Snapshot(done []uint64, complete bool) toySnap {
	return toySnap{Done: done, Complete: complete, Sum: t.sum, Buckets: t.buckets}
}

func (t *toy) Check(p *toySnap) ([]uint64, error) {
	if t.refuse {
		return nil, errors.New("toy: refused")
	}
	return p.Done, nil
}

func (t *toy) Restore(p *toySnap) { t.sum, t.buckets = p.Sum, p.Buckets }

type toyWorker struct {
	t *toy
	c int
	v uint64
}

func (w *toyWorker) RunChunk(c, lo, hi int) {
	w.c, w.v = c, 0
	for i := lo; i < hi; i++ {
		w.v += value(i)
	}
}

func (w *toyWorker) Fold() error {
	w.t.sum += w.v
	w.t.buckets[w.v%8]++
	if w.c == w.t.failAt {
		if w.t.onFail != nil {
			w.t.onFail()
		}
		return errFatal
	}
	return nil
}

func (w *toyWorker) Publish() {}

var toyFormat = Format{Kind: "toy", Version: 1, Hash: "toy-hash"}

func newToy() (*toy, *Runner[toySnap]) {
	t := &toy{failAt: -1}
	return t, New(toyItems, toySize, toyFormat, t)
}

func run(ctx context.Context, t *toy, r *Runner[toySnap], o Options) error {
	return r.Run(ctx, o, func() (Worker, error) { return &toyWorker{t: t}, nil })
}

// chunkValue is what chunk c adds to the toy's sum.
func chunkValue(c int) uint64 {
	var v uint64
	for i := c * toySize; i < min((c+1)*toySize, toyItems); i++ {
		v += value(i)
	}
	return v
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkerCountInvariant(t *testing.T) {
	var want toy
	for c := 0; c*toySize < toyItems; c++ {
		v := chunkValue(c)
		want.sum += v
		want.buckets[v%8]++
	}
	want.failAt = -1
	for _, workers := range []int{1, 4, 16} {
		got, r := newToy()
		if err := run(context.Background(), got, r, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) || r.DoneChunks() != r.Chunks() {
			t.Fatalf("workers=%d: %+v after %d of %d chunks, want %+v", workers, *got, r.DoneChunks(), r.Chunks(), want)
		}
	}
}

// TestResumeWritesSameBytes: a run cancelled after k merged chunks and
// resumed at another worker count ends with the checkpoint bytes of an
// uninterrupted run.
func TestResumeWritesSameBytes(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.ckpt")
	tr, rr := newToy()
	if err := run(context.Background(), tr, rr, Options{Workers: 3, Path: ref}); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, ref)

	for _, k := range []int{1, 2, 17, 64, 100, 142} {
		path := filepath.Join(dir, "run.ckpt")
		os.Remove(path)
		ctx, cancel := context.WithCancel(context.Background())
		t1, r1 := newToy()
		err := run(ctx, t1, r1, Options{Workers: 4, Path: path, OnChunk: func(done, _ int) {
			if done >= k {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) && r1.DoneChunks() != r1.Chunks() {
			t.Fatalf("k=%d: cancelled run returned %v", k, err)
		}
		for _, workers := range []int{1, 16} {
			t2, r2 := newToy()
			if err := r2.Load(path); err != nil {
				t.Fatal(err)
			}
			if r2.DoneChunks() < k {
				t.Fatalf("k=%d: resumed %d chunks, want at least %d", k, r2.DoneChunks(), k)
			}
			out := filepath.Join(dir, "resumed.ckpt")
			if err := run(context.Background(), t2, r2, Options{Workers: workers, Path: out}); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, out); string(got) != string(want) {
				t.Fatalf("k=%d, workers=%d: resumed checkpoint differs:\n%s\nwant\n%s", k, workers, got, want)
			}
			if b, err := r2.Bytes(); err != nil || string(b) != string(want) {
				t.Fatalf("k=%d: Bytes differs from the saved file (err %v)", k, err)
			}
		}
	}
}

// TestLoadRefuses: a checkpoint of another kind, version or configuration,
// or whose payload does not fit, leaves the runner fresh.
func TestLoadRefuses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.ckpt")
	tt, r := newToy()
	if err := r.MergeSpan(0, 70, func() error { tt.sum = 12345; return nil }); err != nil {
		t.Fatal(err)
	}
	write := func(f Format, p toySnap) string {
		b, err := checkpoint.Marshal(f.Kind, f.Version, f.Hash, &p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := tt.Snapshot(append([]uint64(nil), r.done...), false)
	longer := good
	longer.Done = append(append([]uint64(nil), good.Done...), 0)
	pastEnd := good
	pastEnd.Done = append([]uint64(nil), good.Done...)
	pastEnd.Done[2] |= 1 << (143 - 128)

	for _, tc := range []struct {
		name string
		f    Format
		p    toySnap
		fail bool // Check refuses
		want error
	}{
		{"foreign kind", Format{"other", 1, toyFormat.Hash}, good, false, checkpoint.ErrKindMismatch},
		{"foreign version", Format{"toy", 2, toyFormat.Hash}, good, false, checkpoint.ErrVersionMismatch},
		{"foreign hash", Format{"toy", 1, "other-hash"}, good, false, checkpoint.ErrConfigMismatch},
		{"codec refusal", toyFormat, good, true, checkpoint.ErrConfigMismatch},
		{"bitmap length", toyFormat, longer, false, checkpoint.ErrConfigMismatch},
		{"bit past the last chunk", toyFormat, pastEnd, false, checkpoint.ErrConfigMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, r := newToy()
			fresh.refuse = tc.fail
			if err := r.Load(write(tc.f, tc.p)); !errors.Is(err, tc.want) {
				t.Fatalf("Load: %v, want %v", err, tc.want)
			}
			if r.DoneChunks() != 0 || fresh.sum != 0 {
				t.Fatalf("refused load left %d chunks, sum %d", r.DoneChunks(), fresh.sum)
			}
		})
	}

	fresh, r2 := newToy()
	if err := r2.Load(filepath.Join(dir, "absent.ckpt")); err != nil || r2.DoneChunks() != 0 {
		t.Fatalf("missing file: %v, %d chunks", err, r2.DoneChunks())
	}
	if err := r2.Load(write(toyFormat, good)); err != nil {
		t.Fatal(err)
	}
	if r2.DoneChunks() != r.DoneChunks() || fresh.sum != tt.sum {
		t.Fatalf("restored %d chunks, sum %d; want %d, %d", r2.DoneChunks(), fresh.sum, r.DoneChunks(), tt.sum)
	}
}

// TestOnChunkSerialisedAndMonotone: OnChunk runs on one goroutine at a
// time, once per merged chunk (plus once at resume), and its done count
// never decreases.
func TestOnChunkSerialisedAndMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.ckpt")
	for _, resume := range []bool{false, true} {
		tt, r := newToy()
		if resume {
			if err := r.Load(path); err != nil {
				t.Fatal(err)
			}
		}
		start := r.DoneChunks()
		var inside atomic.Int32
		calls, last := 0, 0
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, tt, r, Options{Workers: 16, Path: path, OnChunk: func(done, total int) {
			if !inside.CompareAndSwap(0, 1) {
				t.Error("OnChunk entered concurrently")
			}
			runtime.Gosched()
			if done < last || done > total {
				t.Errorf("OnChunk(%d, %d) after %d", done, total, last)
			}
			last = done
			calls++
			if !resume && done >= 50 {
				cancel()
			}
			inside.Store(0)
		}})
		cancel()
		if resume && err != nil {
			t.Fatal(err)
		}
		wantCalls := r.DoneChunks() - start
		if start > 0 {
			wantCalls++
		}
		if calls != wantCalls || last != r.DoneChunks() {
			t.Fatalf("resume=%v: %d calls ending at %d; want %d ending at %d", resume, calls, last, wantCalls, r.DoneChunks())
		}
	}
}

// TestFatalErrorWinsAndSaves: a fatal fold cancels the run; Run returns it
// rather than the context's error, and still writes the final snapshot.
func TestFatalErrorWinsAndSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tt, r := newToy()
	tt.failAt, tt.onFail = 10, cancel
	if err := run(ctx, tt, r, Options{Workers: 4, Path: path}); !errors.Is(err, errFatal) {
		t.Fatalf("Run: %v, want the fatal fold error", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the fatal fold did not cancel the parent context")
	}
	_, r2 := newToy()
	if err := r2.Load(path); err != nil {
		t.Fatal(err)
	}
	if !r2.SpanMerged(10, 11) || r2.DoneChunks() != r.DoneChunks() {
		t.Fatalf("final snapshot holds %d chunks, want %d including the fatal one", r2.DoneChunks(), r.DoneChunks())
	}

	_, r3 := newToy()
	errWorker := errors.New("toy: no worker")
	err := r3.Run(context.Background(), Options{Workers: 2}, func() (Worker, error) { return nil, errWorker })
	if !errors.Is(err, errWorker) {
		t.Fatalf("Run with failing workers: %v", err)
	}
}

// TestMergeSpan: a span merges once; a repeat is ErrDuplicate and a partial
// overlap an error, neither folded.
func TestMergeSpan(t *testing.T) {
	_, r := newToy()
	folds := 0
	fold := func() error { folds++; return nil }
	if err := r.MergeSpan(4, 8, fold); err != nil {
		t.Fatal(err)
	}
	if err := r.MergeSpan(4, 8, fold); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate span: %v", err)
	}
	if err := r.MergeSpan(6, 10, fold); err == nil || errors.Is(err, ErrDuplicate) {
		t.Fatalf("overlapping span: %v", err)
	}
	if err := r.MergeSpan(8, 9, func() error { folds++; return errFatal }); !errors.Is(err, errFatal) {
		t.Fatalf("fold error: %v", err)
	}
	if folds != 2 || r.DoneChunks() != 5 || !r.SpanMerged(4, 9) || r.SpanMerged(3, 5) {
		t.Fatalf("%d folds, %d chunks done", folds, r.DoneChunks())
	}
}

// cancellingWorker cancels the run as it starts each chunk.
type cancellingWorker struct {
	toyWorker
	cancel  context.CancelFunc
	started *atomic.Int32
}

func (w *cancellingWorker) RunChunk(c, lo, hi int) {
	w.started.Add(1)
	w.cancel()
	w.toyWorker.RunChunk(c, lo, hi)
}

// TestCancelMidChunkMerges: a chunk is the unit of cancellation. A context
// cancelled while a chunk runs lets that chunk finish and merge whole, and
// its worker claims no other.
func TestCancelMidChunkMerges(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		tt, r := newToy()
		var started atomic.Int32
		err := r.Run(ctx, Options{Workers: workers}, func() (Worker, error) {
			return &cancellingWorker{toyWorker: toyWorker{t: tt}, cancel: cancel, started: &started}, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Run returned %v, want context.Canceled", workers, err)
		}
		n := int(started.Load())
		if n == 0 || n > workers || r.DoneChunks() != n {
			t.Fatalf("workers=%d: %d chunks started, %d merged; want each worker's one chunk merged", workers, n, r.DoneChunks())
		}
		var want uint64
		for c := 0; c < r.Chunks(); c++ {
			if r.SpanMerged(c, c+1) {
				want += chunkValue(c)
			}
		}
		if tt.sum != want {
			t.Fatalf("workers=%d: merged sum %d, want the merged chunks' whole sum %d", workers, tt.sum, want)
		}
		if workers == 1 && !r.SpanMerged(0, 1) {
			t.Fatal("the one worker's chunk 0 did not merge")
		}
	}
}

// saveOnEveryMerge sets the periodic save interval to zero for one test.
func saveOnEveryMerge(t *testing.T) {
	d := saveInterval
	t.Cleanup(func() { saveInterval = d })
	saveInterval = 0
}

// TestUnwritablePathFailsFirst: a checkpoint path in a missing directory
// fails Run before any worker starts, with an error wrapping
// os.ErrNotExist, rather than at the first save after the work is done.
func TestUnwritablePathFailsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "toy.ckpt")
	tt, r := newToy()
	var workers atomic.Int32
	err := r.Run(context.Background(), Options{Workers: 4, Path: path}, func() (Worker, error) {
		workers.Add(1)
		return &toyWorker{t: tt}, nil
	})
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Run: %v, want an error wrapping os.ErrNotExist", err)
	}
	if workers.Load() != 0 || r.DoneChunks() != 0 || tt.sum != 0 {
		t.Fatalf("%d workers started and %d chunks ran before the path was refused", workers.Load(), r.DoneChunks())
	}
}

// TestPeriodicSaves: a run saves while it runs, not only when it stops;
// each save holds every chunk merged before it.
func TestPeriodicSaves(t *testing.T) {
	saveOnEveryMerge(t)
	path := filepath.Join(t.TempDir(), "toy.ckpt")
	tt, r := newToy()
	checked := 0
	err := run(context.Background(), tt, r, Options{Workers: 1, Path: path, OnChunk: func(done, _ int) {
		if done%50 != 1 {
			return
		}
		_, mid := newToy()
		if err := mid.Load(path); err != nil || mid.DoneChunks() != done {
			t.Errorf("after %d merges the file holds %d chunks (err %v)", done, mid.DoneChunks(), err)
		}
		checked++
	}})
	if err != nil || checked != 3 {
		t.Fatalf("Run: %v after %d mid-run checks, want nil after 3", err, checked)
	}
}

// TestPeriodicSaveFailureWins: a periodic save that fails mid-run stops
// the run, and Run returns that save's error even when ctx is cancelled
// afterwards.
func TestPeriodicSaveFailureWins(t *testing.T) {
	saveOnEveryMerge(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tt, r := newToy()
	err := run(ctx, tt, r, Options{Workers: 1, Path: filepath.Join(dir, "toy.ckpt"), OnChunk: func(done, _ int) {
		switch done {
		case 10:
			if err := os.RemoveAll(dir); err != nil {
				t.Error(err)
			}
		case 11: // the save after chunk 11's merge failed
			cancel()
		}
	}})
	if err == nil || errors.Is(err, context.Canceled) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Run: %v, want the failed save's error", err)
	}
	if r.DoneChunks() != 11 {
		t.Fatalf("the run merged %d chunks, want it stopped at the failed save after 11", r.DoneChunks())
	}
}
