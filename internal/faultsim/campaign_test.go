package faultsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/chunkrun"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// campaignTestOpts is the shared shape: small enough to run in
// milliseconds, with enough chunks (40, the last one short) that
// scheduling and interruption actually exercise the chunk machinery.
func campaignTestOpts() CampaignOptions {
	return CampaignOptions{Trials: 40*DefaultChunkSize - 1000, Seed: 99}
}

func mustCampaign(t *testing.T, ctx context.Context, cfg Config, schemes []Scheme, opts CampaignOptions) *Report {
	t.Helper()
	rep, err := RunCampaign(ctx, cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunCampaignWorkerCountInvariant(t *testing.T) {
	cfg := DefaultConfig()
	var reference *Report
	for _, workers := range []int{1, 4, 16} {
		opts := campaignTestOpts()
		opts.Workers = workers
		rep := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
		if reference == nil {
			reference = rep
			continue
		}
		if !reflect.DeepEqual(rep.Results, reference.Results) {
			t.Fatalf("workers=%d diverged from workers=1:\n%+v\nvs\n%+v",
				workers, rep.Results, reference.Results)
		}
	}
	if reference.Trials != uint64(campaignTestOpts().Trials) {
		t.Fatalf("tallied %d of %d trials", reference.Trials, campaignTestOpts().Trials)
	}
}

// TestRunCampaignMetrics: a metrics registry attached to a campaign ends
// the run agreeing exactly with the Report — trials, chunks, per-scheme
// tallies, checkpoint saves — and the evaluated-trial counter covers every
// non-empty trial.
func TestRunCampaignMetrics(t *testing.T) {
	cfg := DefaultConfig()
	reg := obs.NewRegistry()
	opts := campaignTestOpts()
	opts.Workers = 4
	opts.CheckpointPath = filepath.Join(t.TempDir(), "snap.json")
	opts.Metrics = reg
	rep := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)

	snap := reg.Snapshot()
	if got := snap.Counters["campaign.trials_done"]; got != rep.Trials {
		t.Fatalf("trials_done = %d, Report.Trials = %d", got, rep.Trials)
	}
	wantChunks := (opts.Trials + DefaultChunkSize - 1) / DefaultChunkSize
	if got := snap.Counters["campaign.chunks_done"]; got != uint64(wantChunks) {
		t.Fatalf("chunks_done = %d, want %d", got, wantChunks)
	}
	if got := snap.Gauges["campaign.chunks_total"]; got != int64(wantChunks) {
		t.Fatalf("chunks_total = %d, want %d", got, wantChunks)
	}
	if got := snap.Gauges["campaign.trials_requested"]; got != int64(opts.Trials) {
		t.Fatalf("trials_requested = %d, want %d", got, opts.Trials)
	}
	for _, res := range rep.Results {
		prefix := "campaign.scheme." + res.SchemeName
		if got := snap.Counters[prefix+".failures"]; got != res.Failures {
			t.Fatalf("%s.failures = %d, Report says %d", prefix, got, res.Failures)
		}
		if got := snap.Counters[prefix+".dues"]; got != res.DUEs {
			t.Fatalf("%s.dues = %d, Report says %d", prefix, got, res.DUEs)
		}
		if got := snap.Counters[prefix+".sdcs"]; got != res.SDCs {
			t.Fatalf("%s.sdcs = %d, Report says %d", prefix, got, res.SDCs)
		}
	}
	// The final snapshot is always written, so at least one timed save.
	saves := snap.Counters["campaign.checkpoint.saves"]
	if saves == 0 {
		t.Fatal("no checkpoint saves recorded")
	}
	if h := snap.Histograms["campaign.checkpoint.save_ms"]; h.Count != saves {
		t.Fatalf("save_ms histogram count %d != saves %d", h.Count, saves)
	}
	if got := snap.Counters["campaign.trials_evaluated"]; got == 0 || got > rep.Trials {
		t.Fatalf("trials_evaluated = %d, want in (0, %d]", got, rep.Trials)
	}
}

// TestRunCampaignCheckpointResumeBitIdentical: a cancelled campaign run
// again with the same CheckpointPath, and no other option, resumes from
// the snapshot it left and ends with the uninterrupted run's Report and
// checkpoint bytes.
func TestRunCampaignCheckpointResumeBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	fullOpts := campaignTestOpts()
	fullOpts.CheckpointPath = filepath.Join(t.TempDir(), "full.ckpt")
	full := mustCampaign(t, context.Background(), cfg, schemes, fullOpts)
	want, err := os.ReadFile(fullOpts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("interrupt randomization seed: %d", seed)

	for round := 0; round < 3; round++ {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		nChunks := (campaignTestOpts().Trials + DefaultChunkSize - 1) / DefaultChunkSize
		stopAfter := 1 + rng.Intn(nChunks-2) // interrupt at a random trial count

		ctx, cancel := context.WithCancel(context.Background())
		opts := campaignTestOpts()
		opts.Workers = 4
		opts.CheckpointPath = path
		opts.OnChunk = func(done, total int) {
			if done >= stopAfter {
				cancel()
			}
		}
		rep, err := RunCampaign(ctx, cfg, schemes, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: interrupted run returned %v", round, err)
		}
		if rep.Trials >= rep.Requested {
			// The cancel raced ahead of the workers and the run finished
			// anyway; it is still a valid resume input, but the round
			// proves nothing, so re-roll.
			round--
			continue
		}

		resumed := opts
		resumed.OnChunk = nil
		rep2 := mustCampaign(t, context.Background(), cfg, schemes, resumed)
		if rep2.Trials != full.Trials {
			t.Fatalf("round %d: resumed run tallied %d trials, want %d", round, rep2.Trials, full.Trials)
		}
		if !reflect.DeepEqual(rep2.Results, full.Results) {
			t.Fatalf("round %d (stop after %d/%d chunks): resumed results diverge from uninterrupted:\n%+v\nvs\n%+v",
				round, stopAfter, nChunks, rep2.Results, full.Results)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: resumed checkpoint differs from the uninterrupted run's (err %v)", round, err)
		}
	}
}

// TestRunCampaignResumeShortCircuitsCompletedRun: a missing checkpoint
// starts a fresh campaign, and a run over its complete snapshot judges no
// trial and reports it as it is.
func TestRunCampaignResumeShortCircuitsCompletedRun(t *testing.T) {
	cfg := DefaultConfig()
	path := filepath.Join(t.TempDir(), "done.ckpt")
	opts := campaignTestOpts()
	opts.CheckpointPath = path
	first := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
	if fresh := mustCampaign(t, context.Background(), cfg, AllSchemes(), campaignTestOpts()); !reflect.DeepEqual(first, fresh) {
		t.Fatal("a run over a missing checkpoint differs from one without a checkpoint")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	opts.Metrics = reg
	again := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
	if !reflect.DeepEqual(first.Results, again.Results) {
		t.Fatal("resuming a complete snapshot changed the results")
	}
	if n := reg.Snapshot().Counters["campaign.trials_evaluated"]; n != 0 {
		t.Fatalf("resuming a complete snapshot judged %d trials", n)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resuming a complete snapshot changed its bytes (err %v)", err)
	}
}

func TestRunCampaignRefusesMismatchedCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opts := campaignTestOpts()
	opts.CheckpointPath = path
	mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config, *CampaignOptions){
		"seed":    func(c *Config, o *CampaignOptions) { o.Seed++ },
		"trials":  func(c *Config, o *CampaignOptions) { o.Trials *= 2 },
		"config":  func(c *Config, o *CampaignOptions) { c.ScrubIntervalHours = 1 },
		"schemes": nil, // handled below: different scheme set
	} {
		mcfg, mopts := cfg, opts
		schemes := AllSchemes()
		if mutate != nil {
			mutate(&mcfg, &mopts)
		} else {
			schemes = schemes[:3]
		}
		if _, err := RunCampaign(context.Background(), mcfg, schemes, mopts); !errors.Is(err, checkpoint.ErrConfigMismatch) {
			t.Fatalf("%s mutation: resume returned %v, want ErrConfigMismatch", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s mutation: the refused snapshot changed (err %v)", name, err)
		}
	}
}

func TestRunCampaignCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCampaign(ctx, DefaultConfig(), AllSchemes(), campaignTestOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if rep == nil || rep.Trials != 0 {
		t.Fatalf("expected empty partial report, got %+v", rep)
	}
}

// panicScheme is a rank-domain scheme of capacity 1 that weighs every
// record 1 and panics in its kind function: whenever two records meet
// concurrently in one rank and the scheme has to classify the failure.
// Only the lane engine's scalar probe classifies such a failure, so the
// panic fires where campaigns contain it. It is deterministic in the fault
// stream, so every worker count trips over exactly the same trials.
func panicScheme() Scheme {
	return &domainScheme{
		name:     "panic-stub",
		dom:      domainRank,
		capacity: 1,
		weight:   func(*Config, *FaultRecord) int { return 1 },
		kind:     func(int, int, float64) FailKind { panic("panic-stub: injected trial failure") },
	}
}

// panicTestOpts sizes a campaign so that panicScheme voids some of its
// trials (55 at this seed) but no more than DefaultErrorBudget tolerates.
// campaignTestOpts' eight times as many trials void more than the budget.
func panicTestOpts() CampaignOptions {
	return CampaignOptions{Trials: 20_000, Seed: 99}
}

func TestRunCampaignPanicIsolationAndReplay(t *testing.T) {
	cfg := DefaultConfig()
	schemes := []Scheme{NewXED(), panicScheme()}
	var reference *Report
	for _, workers := range []int{1, 4, 16} {
		opts := panicTestOpts()
		opts.Workers = workers
		rep, err := RunCampaign(context.Background(), cfg, schemes, opts)
		if err != nil {
			t.Fatalf("workers=%d: campaign aborted: %v", workers, err)
		}
		if len(rep.TrialErrors) == 0 {
			t.Fatalf("workers=%d: stub never panicked", workers)
		}
		if rep.Trials != rep.Requested-uint64(len(rep.TrialErrors)) {
			t.Fatalf("workers=%d: %d tallied + %d voided != %d requested",
				workers, rep.Trials, len(rep.TrialErrors), rep.Requested)
		}
		if reference == nil {
			reference = rep
			continue
		}
		if !reflect.DeepEqual(rep.Results, reference.Results) {
			t.Fatalf("workers=%d: results diverged under panics", workers)
		}
		if len(rep.TrialErrors) != len(reference.TrialErrors) {
			t.Fatalf("workers=%d: %d trial errors vs %d", workers, len(rep.TrialErrors), len(reference.TrialErrors))
		}
		for i := range rep.TrialErrors {
			a, b := &rep.TrialErrors[i], &reference.TrialErrors[i]
			if a.Trial != b.Trial || a.Chunk != b.Chunk || a.RNGState != b.RNGState ||
				!reflect.DeepEqual(a.Faults, b.Faults) {
				t.Fatalf("workers=%d: trial error %d differs: %+v vs %+v", workers, i, a, b)
			}
		}
	}

	// Every recorded error replays in isolation: same faults, same panic.
	for i, te := range reference.TrialErrors {
		if i >= 5 {
			break
		}
		faults, outs, panicked, err := te.Replay(cfg, schemes)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if panicked == nil {
			t.Fatalf("replay %d: panic did not reproduce", i)
		}
		if outs != nil {
			t.Fatalf("replay %d: got outcomes despite panic", i)
		}
		if !reflect.DeepEqual(faults, te.Faults) {
			t.Fatalf("replay %d regenerated different faults:\n%+v\nvs recorded\n%+v", i, faults, te.Faults)
		}
	}

	// And the error itself is descriptive.
	if msg := reference.TrialErrors[0].Error(); msg == "" {
		t.Fatal("empty TrialError message")
	}
}

func TestRunCampaignErrorBudget(t *testing.T) {
	cfg := DefaultConfig()
	schemes := []Scheme{NewXED(), panicScheme()}
	opts := campaignTestOpts()
	rep, err := RunCampaign(context.Background(), cfg, schemes, opts)
	if !errors.Is(err, ErrErrorBudgetExceeded) {
		t.Fatalf("err = %v, want ErrErrorBudgetExceeded", err)
	}
	if rep == nil || len(rep.TrialErrors) <= DefaultErrorBudget {
		t.Fatal("aborted campaign should still report its trial errors, more than the budget")
	}
}

func TestRunCampaignValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := RunCampaign(context.Background(), cfg, AllSchemes(), CampaignOptions{Trials: 0}); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := RunCampaign(context.Background(), cfg, nil, CampaignOptions{Trials: 10}); err == nil {
		t.Fatal("empty scheme set accepted")
	}
	// Near math.MaxInt64 the chunk count's arithmetic overflows, and the
	// campaign, its runner and its merger must refuse any count past the
	// bound up front. (The context is cancelled so that a campaign which
	// accepted the count would stop before its first chunk.)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, trials := range []int{chunkrun.MaxItems + 1, math.MaxInt64} {
		opts := CampaignOptions{Trials: trials}
		if _, err := RunCampaign(cancelled, cfg, AllSchemes(), opts); err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("%d trials: %v, want a refusal", trials, err)
		}
		if _, err := NewChunkRunner(cfg, AllSchemes(), opts); err == nil {
			t.Fatalf("NewChunkRunner accepted %d trials", trials)
		}
		if _, err := NewMerger(cfg, AllSchemes(), opts); err == nil {
			t.Fatalf("NewMerger accepted %d trials", trials)
		}
	}
	bad := cfg
	bad.Channels = 0
	if _, err := RunCampaign(context.Background(), bad, AllSchemes(), CampaignOptions{Trials: 10}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSchemesByName(t *testing.T) {
	names := SchemeNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 scheme names, got %v", names)
	}
	schemes, err := SchemesByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range schemes {
		if s.Name() != names[i] {
			t.Fatalf("scheme %d resolved to %q, want %q", i, s.Name(), names[i])
		}
	}
	if _, err := SchemesByName("XED", "NoSuchScheme"); err == nil {
		t.Fatal("unknown scheme name accepted")
	}
	if _, err := SchemesByName(); err == nil {
		t.Fatal("empty name list accepted")
	}
	// A repeated name would print two rows of which Report.ResultFor and
	// Improvement only ever read the first.
	if _, err := SchemesByName("XED", "Chipkill", "XED"); err == nil || !strings.Contains(err.Error(), `"XED"`) {
		t.Fatalf("repeated scheme: err = %v, want one naming \"XED\"", err)
	}
}

func TestConfigValidateRejectsBadRatesAndAging(t *testing.T) {
	base := DefaultConfig()

	cfg := base
	cfg.FITs = append(FITTable{}, base.FITs...)
	cfg.FITs[0].Rate = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative FIT rate accepted")
	}

	cfg = base
	cfg.FITs = append(FITTable{}, base.FITs...)
	cfg.FITs[0].Rate = FIT(math.NaN())
	if err := cfg.Validate(); err == nil {
		t.Fatal("NaN FIT rate accepted")
	}

	cfg = base
	cfg.ScalingRate = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Fatal("NaN scaling rate accepted")
	}

	cfg = base
	cfg.Aging = AgingProfile{InfantFactor: -2, WearoutFactor: 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative aging factor accepted")
	}

	cfg = base
	cfg.Aging = AgingProfile{InfantFactor: 1, WearoutFactor: 1, WearoutOnset: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range wearout onset accepted")
	}
}

// panicOnStart is a rank-domain scheme of capacity 1 that weighs every
// record 1 and panics in its weight function on a record that starts at
// exactly *start: one chosen trial of a campaign. The lane engine weighs
// records from its tables, so the panic fires when the scalar probe
// re-weighs the chosen trial — which it does because the trial holds two
// records in one rank.
func panicOnStart(start *float64) Scheme {
	return &domainScheme{
		name:     "panic-on-start",
		dom:      domainRank,
		capacity: 1,
		weight: func(_ *Config, r *FaultRecord) int {
			if r.Start == *start {
				panic("panic-on-start: chosen trial")
			}
			return 1
		},
		kind: xedKind,
	}
}

// sharesRank reports whether two of the records lie in one rank.
func sharesRank(faults []FaultRecord) bool {
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			if faults[i].Channel == faults[j].Channel && faults[i].Rank == faults[j].Rank {
				return true
			}
		}
	}
	return false
}

// TestTrialErrorReplayChosenTrial: a scheme panicking on one chosen trial —
// the last planned trial of a chunk to hold two records in one rank, so
// its regeneration depends on the draws the chunk's earlier trials made —
// voids exactly that trial, and Replay re-plans the chunk to regenerate
// the recorded faults and the panic.
func TestTrialErrorReplayChosenTrial(t *testing.T) {
	cfg := DefaultConfig()
	start := -1.0
	schemes := []Scheme{NewXED(), panicOnStart(&start)}
	opts := campaignTestOpts()
	const chunk = 3

	// Plan chunk 3 the way the campaign will, and pick its last trial
	// that pairs two records in one rank.
	ev := NewEvaluator(&cfg, schemes)
	gen := newRunGenerator(&cfg, ev.evalTables)
	arr := newArrivalSamplers(gen.genTables)
	var p batchPlan
	rng := new(simrand.Source)
	rng.SeedStream(opts.Seed, chunk)
	p.build(gen.genTables, &arr, rng, DefaultChunkSize)
	last := -1
	var faults, buf []FaultRecord
	for i := 0; i < p.emitted(); i++ {
		buf = p.emitTrial(gen, rng, i, buf[:0])
		if sharesRank(buf) {
			last, faults = i, append(faults[:0], buf...)
		}
	}
	if last < 1 {
		t.Fatalf("chunk %d's last trial with two records in one rank is plan index %d; need 1 or more", chunk, last)
	}
	start = faults[0].Start

	rep := mustCampaign(t, context.Background(), cfg, schemes, opts)
	if len(rep.TrialErrors) != 1 {
		t.Fatalf("%d voided trials, want exactly the chosen one", len(rep.TrialErrors))
	}
	te := rep.TrialErrors[0]
	if want := chunk*DefaultChunkSize + int(p.trialPos[last]); te.Trial != want || te.Chunk != chunk ||
		te.PlanIndex != last || te.ChunkTrials != DefaultChunkSize {
		t.Fatalf("voided trial %d (chunk %d, plan index %d of a %d-trial chunk), want trial %d (chunk %d, plan index %d of %d)",
			te.Trial, te.Chunk, te.PlanIndex, te.ChunkTrials, want, chunk, last, DefaultChunkSize)
	}
	got, outs, panicked, err := te.Replay(cfg, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, te.Faults) || !reflect.DeepEqual(got, faults) {
		t.Fatalf("replay regenerated\n%+v\nrecorded\n%+v", got, te.Faults)
	}
	if panicked == nil || outs != nil {
		t.Fatalf("replay: panic %v, outcomes %v; want the panic to recur", panicked, outs)
	}

	// A trial that drew no faults replays as an empty stream.
	empty := te
	empty.PlanIndex = -1
	if got, outs, panicked, err := empty.Replay(cfg, schemes); err != nil || got != nil || panicked != nil || len(outs) != len(schemes) {
		t.Fatalf("empty-trial replay = %v, %v, %v, %v", got, outs, panicked, err)
	}
	// Records that cannot name a planned trial are refused.
	for _, bad := range []TrialError{{ChunkTrials: 0, RNGState: te.RNGState}, {ChunkTrials: DefaultChunkSize, PlanIndex: p.emitted(), RNGState: te.RNGState}} {
		if _, _, _, err := bad.Replay(cfg, schemes); err == nil {
			t.Fatalf("replay of %+v accepted", bad)
		}
	}
}

// TestRunCampaignSteadyStateAllocs pins the campaign's allocation budget:
// once the chunk buffers are pooled, a Table I campaign on two workers
// allocates only its config-derived tables, accumulators and Report —
// under the 40 KB the scalar path allocated. The same bound at 256 and
// 4096 chunks holds the budget flat in the chunk count: 16 bytes per chunk
// would break it at 4096.
func TestRunCampaignSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cfg, schemes := DefaultConfig(), AllSchemes()
	for _, chunks := range []int{256, 4096} {
		opts := CampaignOptions{Trials: chunks * DefaultChunkSize, Seed: 1, Workers: 2}
		mustCampaign(t, context.Background(), cfg, schemes, opts)
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			opts.Seed++
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			mustCampaign(t, context.Background(), cfg, schemes, opts)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		if least > 40_000 {
			t.Fatalf("a warm %d-chunk Table I campaign allocated %d bytes, want at most 40000", chunks, least)
		}
	}
}

// TestCampaignRefusesVersionOneCheckpoint: version-1 snapshots hold
// scalar-generated tallies under the same config hash, so neither a
// resuming campaign nor a merger may load one.
func TestCampaignRefusesVersionOneCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opts := campaignTestOpts()
	opts.CheckpointPath = path
	mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpoint.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Version != checkpointVersion || checkpointVersion < 2 {
		t.Fatalf("campaign saved a v%d checkpoint; version %d is current", env.Version, checkpointVersion)
	}
	old, err := checkpoint.Marshal(env.Kind, 1, env.ConfigHash, env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(context.Background(), cfg, AllSchemes(), opts); !errors.Is(err, checkpoint.ErrVersionMismatch) {
		t.Fatalf("resume from a v1 checkpoint: %v, want ErrVersionMismatch", err)
	}
	m, err := NewMerger(cfg, AllSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(path); !errors.Is(err, checkpoint.ErrVersionMismatch) {
		t.Fatalf("merger load of a v1 checkpoint: %v, want ErrVersionMismatch", err)
	}
}

// rewriteCheckpoint edits the payload of the campaign checkpoint at path
// and keeps its envelope, config hash included, valid.
func rewriteCheckpoint(t *testing.T, path string, edit func(*campaignSnapshot)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpoint.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var snap campaignSnapshot
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		t.Fatal(err)
	}
	edit(&snap)
	b, err := checkpoint.Marshal(env.Kind, env.Version, env.ConfigHash, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunCampaignRefusesDoneBitPastChunkCount: a hash-valid snapshot whose
// bitmap marks a chunk past the last one would resume with more chunks
// done than exist and never be complete; it is refused.
func TestRunCampaignRefusesDoneBitPastChunkCount(t *testing.T) {
	cfg := DefaultConfig()
	opts := CampaignOptions{Trials: 79 * DefaultChunkSize, Seed: 99} // 79 chunks
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
	rewriteCheckpoint(t, opts.CheckpointPath, func(s *campaignSnapshot) { s.DoneChunks[1] |= 1 << (79 - 64) })

	opts.OnChunk = func(done, total int) {
		if done > total {
			t.Errorf("OnChunk(%d, %d)", done, total)
		}
	}
	if _, err := RunCampaign(context.Background(), cfg, AllSchemes(), opts); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("resume with chunk 79 of 79 marked done: %v, want ErrConfigMismatch", err)
	}
}
