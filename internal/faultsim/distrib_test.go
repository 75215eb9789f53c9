package faultsim

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"xedsim/internal/checkpoint"
)

// distTestOpts is a small campaign that still spans many chunks: 40 full
// ones and a short last one.
func distTestOpts() CampaignOptions {
	return CampaignOptions{Trials: 40*DefaultChunkSize + 1000, Seed: 99}
}

// runSpans partitions the chunk range into spans of `unit` chunks,
// evaluates them with ChunkRunners and merges them in a shuffled order.
func runSpans(t *testing.T, cfg Config, mkSchemes func() []Scheme, opts CampaignOptions, unit int, shuffle *rand.Rand) *Merger {
	t.Helper()
	m, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two runners standing in for two worker processes.
	runners := make([]*ChunkRunner, 2)
	for i := range runners {
		if runners[i], err = NewChunkRunner(cfg, mkSchemes(), opts); err != nil {
			t.Fatal(err)
		}
	}
	var spans [][2]int
	for lo := 0; lo < m.NumChunks(); lo += unit {
		hi := lo + unit
		if hi > m.NumChunks() {
			hi = m.NumChunks()
		}
		spans = append(spans, [2]int{lo, hi})
	}
	shuffle.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	for i, sp := range spans {
		res, err := runners[i%len(runners)].RunSpan(context.Background(), sp[0], sp[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Merge(res); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestMergerMatchesRunCampaign is the distribution seam's core invariant:
// spans evaluated by independent runners and merged out of order produce a
// Report deep-equal to RunCampaign's, and snapshot bytes identical to the
// checkpoint RunCampaign saves.
func TestMergerMatchesRunCampaign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 2 * HoursPerYear
	mkSchemes := func() []Scheme { return []Scheme{NewSECDED(), NewXED()} }
	opts := distTestOpts()

	ckpt := filepath.Join(t.TempDir(), "local.ckpt")
	localOpts := opts
	localOpts.CheckpointPath = ckpt
	localRep, err := RunCampaign(context.Background(), cfg, mkSchemes(), localOpts)
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	for _, unit := range []int{1, 7, 16, 1000} {
		m := runSpans(t, cfg, mkSchemes, opts, unit, rand.New(rand.NewSource(int64(unit))))
		if m.DoneChunks() != m.NumChunks() {
			t.Fatalf("unit %d: merger incomplete: %d/%d chunks", unit, m.DoneChunks(), m.NumChunks())
		}
		if !reflect.DeepEqual(m.Report(), localRep) {
			t.Fatalf("unit %d: merged Report differs from RunCampaign", unit)
		}
		b, err := m.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(localBytes) {
			t.Fatalf("unit %d: merged snapshot bytes differ from local checkpoint", unit)
		}
	}
}

// TestMergerLaneEngineBitIdentical: spans judged by ChunkRunners' lane
// engines merge to exactly what the EvaluateInto oracle tallies over the
// same planned chunks.
func TestMergerLaneEngineBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 2 * HoursPerYear
	mkSchemes := func() []Scheme { return []Scheme{NewXED()} }
	opts := distTestOpts()

	m := runSpans(t, cfg, mkSchemes, opts, 13, rand.New(rand.NewSource(5)))
	sameCampaign(t, "merged spans vs EvaluateInto", m.Report(),
		oracleCampaign(t, cfg, mkSchemes(), opts, (*Evaluator).EvaluateInto))
}

// spanCores lends a span up to width-1 helper cores. With wantAt > 0 it
// asks for them back from its wantAt-th Wanted call on, as a worker does
// once another of its lease loops waits for a core.
type spanCores struct {
	free    atomic.Int32
	wanteds atomic.Int32
	wantAt  int32
}

func newSpanCores(width int, wantAt int32) *spanCores {
	c := &spanCores{wantAt: wantAt}
	c.free.Store(int32(width - 1))
	return c
}

func (c *spanCores) TryAcquire() bool {
	if c.free.Add(-1) >= 0 {
		return true
	}
	c.free.Add(1)
	return false
}

func (c *spanCores) Wanted() bool { return c.wantAt > 0 && c.wanteds.Add(1) >= c.wantAt }

func (c *spanCores) Release() { c.free.Add(1) }

// cancelAfter is a context whose Err reports Canceled from its n+1-th call
// on, so a span sees it cancelled after at most n of its chunks whatever
// goroutines claim them.
type cancelAfter struct {
	context.Context
	left atomic.Int32
}

func newCancelAfter(n int32) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// withoutStacks drops the voided trials' panic stacks, which name the
// goroutine that judged the trial.
func withoutStacks(res *ChunkResult) *ChunkResult {
	for i := range res.Errors {
		res.Errors[i].Stack = ""
	}
	return res
}

// TestChunkRunnerSpanWidths: a span fanned out over any number of helper
// goroutines, with or without handing their cores back midway, returns the
// ChunkResult RunSpan computes on one goroutine, voided trials sorted by
// trial; and every helper releases its core. One runner serves every width,
// so helpers built for a wide span are reset for the next.
func TestChunkRunnerSpanWidths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 2 * HoursPerYear
	for _, tc := range []struct {
		name    string
		schemes []Scheme
	}{
		{"clean", []Scheme{NewSECDED(), NewXED()}},
		{"voided", []Scheme{NewXED(), panicScheme()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			const lo, hi = 3, 38
			ref, err := NewChunkRunner(cfg, tc.schemes, distTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RunSpan(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if voided := len(want.Errors) > 0; voided != (tc.name == "voided") {
				t.Fatalf("%d voided trials", len(want.Errors))
			}
			withoutStacks(want)
			r, err := NewChunkRunner(cfg, tc.schemes, distTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, wantAt := range []int32{0, 4} {
				for _, width := range []int{1, 2, 3, 8} {
					cores := newSpanCores(width, wantAt)
					got, err := r.RunSpanOn(ctx, lo, hi, cores)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(withoutStacks(got), want) {
						t.Fatalf("width %d, cores wanted from call %d: span result differs from RunSpan's", width, wantAt)
					}
					if n := cores.free.Load(); n != int32(width-1) {
						t.Fatalf("width %d: %d of %d helper cores came back", width, n, width-1)
					}
				}
			}
		})
	}
}

// TestChunkRunnerSpanCancelled: a span cancelled midway returns ctx's
// error and no result at every width.
func TestChunkRunnerSpanCancelled(t *testing.T) {
	r, err := NewChunkRunner(DefaultConfig(), []Scheme{NewXED()}, distTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 3, 8} {
		cores := newSpanCores(width, 0)
		res, err := r.RunSpanOn(newCancelAfter(10), 0, 30, cores)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("width %d: cancelled span returned (%v, %v), want (nil, context.Canceled)", width, res, err)
		}
		if n := cores.free.Load(); n != int32(width-1) {
			t.Fatalf("width %d: %d of %d helper cores came back", width, n, width-1)
		}
	}
}

// TestChunkRunnerSpanAllocs pins the runner's steady state: once the
// pooled chunk buffers are warm, a one-chunk span allocates only its
// ChunkResult (the result, its tallies and their year buckets), and a
// wide span's allocations, helpers included, do not grow with its chunk
// count.
func TestChunkRunnerSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r, err := NewChunkRunner(DefaultConfig(), AllSchemes(), distTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for c := 0; c < r.NumChunks(); c++ {
		if _, err := r.RunSpan(ctx, c, c+1); err != nil {
			t.Fatal(err)
		}
	}
	c := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.RunSpan(ctx, c, c+1); err != nil {
			t.Fatal(err)
		}
		c = (c + 1) % r.NumChunks()
	})
	if allocs > 3 {
		t.Fatalf("RunSpan allocates %v times per span, want at most 3", allocs)
	}

	wide := func(width, chunks int) float64 {
		cores := newSpanCores(width, 0) // every helper's core comes back
		return testing.AllocsPerRun(10, func() {
			if _, err := r.RunSpanOn(ctx, 0, chunks, cores); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, width := range []int{1, 3} {
		wide(width, 8) // build the helpers and warm their buffers
		short, long := wide(width, 8), wide(width, r.NumChunks())
		if long > short || long > float64(3+2*(width-1)) {
			t.Fatalf("width %d: a %d-chunk span allocates %v times, an 8-chunk one %v", width, r.NumChunks(), long, short)
		}
	}
}

// TestMergeRejectsDuplicates pins at-most-once merging: a span delivered
// twice is acknowledged as ErrDuplicateChunks and not double-counted, and
// a partially overlapping span is an error.
func TestMergeRejectsDuplicates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 1 * HoursPerYear
	schemes := []Scheme{NewXED()}
	opts := CampaignOptions{Trials: 8 * DefaultChunkSize, Seed: 1}

	m, err := NewMerger(cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkRunner(cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSpan(context.Background(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(res); err != nil {
		t.Fatal(err)
	}
	trials, chunks := m.DoneTrials(), m.DoneChunks()
	if err := m.Merge(res); !errors.Is(err, ErrDuplicateChunks) {
		t.Fatalf("duplicate merge err = %v, want ErrDuplicateChunks", err)
	}
	if m.DoneTrials() != trials || m.DoneChunks() != chunks {
		t.Fatal("duplicate merge changed accumulators")
	}

	overlap, err := r.RunSpan(context.Background(), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(overlap); err == nil || errors.Is(err, ErrDuplicateChunks) {
		t.Fatalf("partial overlap err = %v, want hard error", err)
	}
}

// TestMergeValidatesEnvelopes pins the shape/accounting checks protecting
// the coordinator from corrupted or mismatched worker envelopes.
func TestMergeValidatesEnvelopes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 1 * HoursPerYear
	schemes := []Scheme{NewXED()}
	opts := CampaignOptions{Trials: 8 * DefaultChunkSize, Seed: 1}
	m, err := NewMerger(cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewChunkRunner(cfg, schemes, opts)
	good, err := r.RunSpan(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(r ChunkResult) ChunkResult
	}{
		{"out of range", func(r ChunkResult) ChunkResult { r.Hi = 99; return r }},
		{"inverted span", func(r ChunkResult) ChunkResult { r.Lo, r.Hi = 2, 2; return r }},
		{"wrong scheme count", func(r ChunkResult) ChunkResult { r.Tallies = nil; return r }},
		{"wrong year buckets", func(r ChunkResult) ChunkResult {
			r.Tallies = []SchemeTally{{ByYear: make([]uint64, 99)}}
			return r
		}},
		{"trial miscount", func(r ChunkResult) ChunkResult { r.Trials++; return r }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(*good)
			if err := m.Merge(&bad); err == nil {
				t.Fatal("corrupted envelope accepted")
			}
		})
	}
	if m.DoneChunks() != 0 {
		t.Fatal("rejected envelopes advanced the accumulator")
	}
}

// TestMergerErrorBudgetAggregates pins cross-worker error-budget
// enforcement: voided trials from different spans accumulate, and the
// budget trips on the merge that crosses it.
func TestMergerErrorBudgetAggregates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 1 * HoursPerYear
	schemes := []Scheme{NewXED()}
	opts := CampaignOptions{Trials: 8 * DefaultChunkSize, Seed: 1}
	m, err := NewMerger(cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate spans with 60 voided trials each (as if scheme code
	// panicked on remote workers): one span stays within the budget of
	// 100, two cross it.
	const perSpan = DefaultErrorBudget * 3 / 5
	mkRes := func(lo int) *ChunkResult {
		res := &ChunkResult{
			Lo: lo, Hi: lo + 1,
			Trials:  DefaultChunkSize - perSpan,
			Tallies: []SchemeTally{{ByYear: make([]uint64, 1)}},
		}
		for i := 0; i < perSpan; i++ {
			res.Errors = append(res.Errors, TrialError{
				Trial: lo*DefaultChunkSize + i, Chunk: lo, RNGState: [4]uint64{1, 2, 3, 4}, PanicValue: "boom",
			})
		}
		return res
	}
	if err := m.Merge(mkRes(0)); err != nil {
		t.Fatalf("first span (%d errors, budget %d): %v", perSpan, DefaultErrorBudget, err)
	}
	err = m.Merge(mkRes(1))
	if !errors.Is(err, ErrErrorBudgetExceeded) {
		t.Fatalf("second span err = %v, want ErrErrorBudgetExceeded", err)
	}
	if m.TrialErrorCount() != 2*perSpan {
		t.Fatalf("TrialErrorCount = %d, want %d", m.TrialErrorCount(), 2*perSpan)
	}
}

// TestMergerSaveLoadRoundTrip pins coordinator crash recovery: a merger
// restored from its own checkpoint continues exactly where it stopped and
// finishes with the same bytes as an uninterrupted one.
func TestMergerSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LifetimeHours = 2 * HoursPerYear
	mkSchemes := func() []Scheme { return []Scheme{NewXED(), NewChipkill()} }
	opts := distTestOpts()
	path := filepath.Join(t.TempDir(), "job.ckpt")

	r, err := NewChunkRunner(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Merge the first half, save, and abandon m1 (the "crashed"
	// coordinator).
	half := m1.NumChunks() / 2
	res, err := r.RunSpan(context.Background(), 0, half)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Merge(res); err != nil {
		t.Fatal(err)
	}
	if err := m1.Save(path); err != nil {
		t.Fatal(err)
	}

	m2, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(path); err != nil {
		t.Fatal(err)
	}
	if m2.DoneChunks() != half {
		t.Fatalf("restored DoneChunks = %d, want %d", m2.DoneChunks(), half)
	}
	if !m2.SpanMerged(0, half) || m2.SpanMerged(half, m2.NumChunks()) {
		t.Fatal("restored bitmap wrong")
	}
	rest, err := r.RunSpan(context.Background(), half, m2.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Merge(rest); err != nil {
		t.Fatal(err)
	}

	localRep, err := RunCampaign(context.Background(), cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Report(), localRep) {
		t.Fatal("restored+completed merger differs from local run")
	}

	// Loading a missing file is a fresh start, not an error.
	m3, _ := NewMerger(cfg, mkSchemes(), opts)
	if err := m3.Load(filepath.Join(t.TempDir(), "absent.ckpt")); err != nil {
		t.Fatal(err)
	}
	if m3.DoneChunks() != 0 {
		t.Fatal("missing checkpoint produced progress")
	}
}

// TestMergerLoadChecksWholePayload: a hash-valid checkpoint whose later
// scheme has the wrong number of year buckets is refused before any state
// changes, so a coordinator that discards the refused snapshot really
// starts the job from zero.
func TestMergerLoadChecksWholePayload(t *testing.T) {
	cfg := DefaultConfig()
	mkSchemes := func() []Scheme { return []Scheme{NewSECDED(), NewXED()} }
	opts := distTestOpts()
	r, err := NewChunkRunner(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSpan(context.Background(), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(res); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	rewriteCheckpoint(t, path, func(s *campaignSnapshot) { s.Results[1].ByYear = s.Results[1].ByYear[:1] })

	fresh, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(path); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("load of a truncated by_year: %v, want ErrConfigMismatch", err)
	}
	if fresh.SpanMerged(0, 16) || fresh.DoneChunks() != 0 || fresh.DoneTrials() != 0 {
		t.Fatalf("refused load left %d chunks and %d trials merged", fresh.DoneChunks(), fresh.DoneTrials())
	}
	empty, err := NewMerger(cfg, mkSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Report(), empty.Report()) {
		t.Fatal("refused load changed the tallies")
	}
}

// TestMergerHashIdentity pins the job-identity semantics: the hash is
// stable across scheduling choices (bit-identical results ⇒ same cache
// key) and discriminates on everything that shapes the trial streams.
func TestMergerHashIdentity(t *testing.T) {
	cfg := DefaultConfig()
	schemes := []Scheme{NewXED()}
	hash := func(opts CampaignOptions) string {
		m, err := NewMerger(cfg, schemes, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m.Hash()
	}
	base := CampaignOptions{Trials: 1000, Seed: 1}
	h0 := hash(base)
	parallel := base
	parallel.Workers = 16
	if h := hash(parallel); h != h0 {
		t.Fatal("worker count changed the campaign hash")
	}
	for name, mut := range map[string]func(*CampaignOptions){
		"seed":   func(o *CampaignOptions) { o.Seed++ },
		"trials": func(o *CampaignOptions) { o.Trials++ },
	} {
		o := base
		mut(&o)
		if h := hash(o); h == h0 {
			t.Fatalf("%s change did not change the campaign hash", name)
		}
	}
}
