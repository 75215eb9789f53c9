package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// laneSig indexes the weight tables: 3 boolean record flags per
// granularity.
func laneSig(r *FaultRecord) int {
	return int(r.Gran)*8 | b2i(r.Transient) | b2i(r.Silent)<<1 | b2i(r.EscalatedByScaling)<<2
}

// sigOf digests an in-fleet record into its weight-table row. The
// signature is config-free: the chip position picks the row block.
func sigOf(r *FaultRecord) int32 {
	return int32(r.Chip)*int32(laneNSig) + int32(laneSig(r))
}

// denseConfig inflates the Table I rates so multi-record trials — the
// lanes the mask pass must route to the scalar probe — are common enough
// to exercise at small trial counts.
func denseConfig(factor FIT) Config {
	cfg := DefaultConfig()
	fits := make(FITTable, len(cfg.FITs))
	copy(fits, cfg.FITs)
	for i := range fits {
		fits[i].Rate *= factor
	}
	cfg.FITs = fits
	return cfg
}

// TestLaneEngineBoundaries pins the lane-packing arithmetic at the word
// boundaries: trial counts around one lane word, a full chunk whose
// planned trials split words unevenly, and a short last chunk smaller than
// a word (so its one batch is partial) — on a dense config, where planned
// trials are packed into lanes, and on a scaling-fatal one (scaling faults
// without On-Die ECC), where every trial, empty or not, fails and the
// chunk is tallied without a plan. The campaign must match both scalar
// oracles on the same planned chunks.
func TestLaneEngineBoundaries(t *testing.T) {
	fatal := denseConfig(150)
	fatal.OnDie, fatal.ScalingRate = false, 1e-4
	schemes := AllSchemes()
	for name, cfg := range map[string]Config{"dense": denseConfig(150), "fatal": fatal} {
		for _, trials := range []int{1, 7, 63, 64, 65, 130, DefaultChunkSize + 7} {
			opts := CampaignOptions{Trials: trials, Seed: 7, Workers: 2}
			rep := mustCampaign(t, context.Background(), cfg, schemes, opts)
			for judge, fn := range oracleJudges {
				sameCampaign(t, fmt.Sprintf("%s trials=%d vs %s", name, trials, judge),
					rep, oracleCampaign(t, cfg, schemes, opts, fn))
			}
		}
	}
}

// TestLaneEngineEquivalenceSweep runs a larger campaign across the config
// corners the lane masks special-case — silent word faults (overweight
// lanes), scaling escalation, x4 organisations, the address-overlap
// criterion, the scaling-fatal early-out, aging — against the
// EvaluateInto oracle on the same planned chunks.
func TestLaneEngineEquivalenceSweep(t *testing.T) {
	mutations := map[string]func(*Config){
		"tableI":       func(c *Config) {},
		"silent-heavy": func(c *Config) { c.SilentWordFraction = 0.5 },
		"x4":           func(c *Config) { c.ChipsPerRank = 18 },
		"scaling":      func(c *Config) { c.ScalingRate = 1e-4 },
		"overlap":      func(c *Config) { c.RequireAddressOverlap = true },
		"noOnDie":      func(c *Config) { c.OnDie = false },
		"fatal":        func(c *Config) { c.OnDie = false; c.ScalingRate = 1e-4 },
		"aging":        func(c *Config) { c.Aging = BathtubAging() },
	}
	for name, mutate := range mutations {
		cfg := denseConfig(80)
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts := CampaignOptions{Trials: 30_000, Seed: 11, Workers: 4}
		if testing.Short() {
			opts.Trials = 8_000
		}
		rep := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
		sameCampaign(t, name, rep, oracleCampaign(t, cfg, AllSchemes(), opts, (*Evaluator).EvaluateInto))
	}
}

// TestLaneEngineHeavyWeights: weights either side of 127, the int8 limit —
// the lane probe must carry both at full width.
func TestLaneEngineHeavyWeights(t *testing.T) {
	cfg := denseConfig(200)
	heavy := func(w int) weightFunc {
		return func(cfg *Config, r *FaultRecord) int {
			if visibleWeight(cfg, r) == 0 {
				return 0
			}
			return w
		}
	}
	schemes := []Scheme{
		NewXED(),
		NewRankErasureScheme("Heavy120", 200, heavy(120)),
		NewRankErasureScheme("Heavy130", 200, heavy(130)),
	}
	opts := CampaignOptions{Trials: 20_000, Seed: 3, Workers: 2}
	rep := mustCampaign(t, context.Background(), cfg, schemes, opts)
	for judge, fn := range oracleJudges {
		sameCampaign(t, "heavy schemes vs "+judge, rep, oracleCampaign(t, cfg, schemes, opts, fn))
	}
}

// TestLaneEngineSchemeCap: the weight-code word has eight slots, so every
// way of shaping a campaign refuses a ninth scheme up front, and
// NewLaneEvaluator panics on one.
func TestLaneEngineSchemeCap(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	for len(schemes) < 9 {
		schemes = append(schemes, NewRankErasureScheme(fmt.Sprintf("Rank%d", len(schemes)), 1, visibleWeight))
	}
	opts := CampaignOptions{Trials: 1000, Seed: 1}
	mustCampaign(t, context.Background(), cfg, schemes[:8], opts)
	if _, err := RunCampaign(context.Background(), cfg, schemes, opts); err == nil {
		t.Error("RunCampaign accepted nine schemes")
	}
	if _, err := NewChunkRunner(cfg, schemes, opts); err == nil {
		t.Error("NewChunkRunner accepted nine schemes")
	}
	if _, err := NewMerger(cfg, schemes, opts); err == nil {
		t.Error("NewMerger accepted nine schemes")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewLaneEvaluator accepted nine schemes")
		}
	}()
	NewLaneEvaluator(NewEvaluator(&cfg, schemes))
}

// TestLaneEnginePanicIsolation: a scheme panicking in the scalar probe
// voids exactly the trials it voids under the EvaluateInto oracle, with
// the same replay records, and the surviving tallies stay bit-identical.
func TestLaneEnginePanicIsolation(t *testing.T) {
	cfg := DefaultConfig()
	schemes := []Scheme{NewXED(), panicScheme()}
	opts := panicTestOpts()
	rep, err := RunCampaign(context.Background(), cfg, schemes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TrialErrors) == 0 {
		t.Fatal("stub never panicked")
	}
	sameCampaign(t, "under panics", rep, oracleCampaign(t, cfg, schemes, opts, (*Evaluator).EvaluateInto))
	// The error budget is enforced at merge.
	if _, err := RunCampaign(context.Background(), cfg, schemes, campaignTestOpts()); !errors.Is(err, ErrErrorBudgetExceeded) {
		t.Fatalf("err = %v, want ErrErrorBudgetExceeded", err)
	}
}

// TestLaneEngineCrossEngineResume: a lane-judged campaign interrupted on
// two workers and resumed on sixteen equals, bit for bit, the reference
// probe judging the same planned chunks uninterrupted.
func TestLaneEngineCrossEngineResume(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	full := oracleCampaign(t, cfg, schemes, campaignTestOpts(), (*Evaluator).referenceInto)

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	opts := campaignTestOpts()
	opts.Workers = 2
	opts.CheckpointPath = path
	opts.OnChunk = func(done, total int) {
		if done >= total/2 {
			cancel()
		}
	}
	rep, err := RunCampaign(ctx, cfg, schemes, opts)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if rep.Trials >= rep.Requested {
		t.Skip("cancel raced ahead of the workers; nothing to resume")
	}

	resumed := opts
	resumed.OnChunk = nil
	resumed.Workers = 16
	sameCampaign(t, "resumed vs uninterrupted reference", mustCampaign(t, context.Background(), cfg, schemes, resumed), full)
}

// TestLaneEvaluatorDirect drives the LaneEvaluator through its public
// packing API on crafted streams: a compound rank failure, an overweight
// silent fault, and an empty lane, all in one batch.
func TestLaneEvaluatorDirect(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	ev := NewEvaluator(&cfg, schemes)
	lv := NewLaneEvaluator(ev)

	mk := func(ch, rank, chip int, start, end float64, silent, transient bool) FaultRecord {
		return FaultRecord{Channel: ch, Rank: rank, Chip: chip, Start: start, End: end,
			Gran: 1 /* GranWord */, Silent: silent, Transient: transient}
	}
	trials := [][]FaultRecord{
		nil,                                     // empty lane
		{mk(0, 0, 1, 100, 61320, false, false)}, // lone visible fault
		{mk(0, 0, 1, 100, 61320, false, false), mk(0, 0, 3, 200, 61320, false, false)}, // two chips, one rank
		{mk(1, 1, 2, 50, 61320, true, true)},                                           // silent transient word: XED DUE
		{mk(2, 0, 0, 10, 61320, false, false), mk(3, 0, 0, 10, 61320, false, false)},   // distinct channels
		{mk(0, 0, 5, 500, 600, false, true), mk(0, 1, 5, 550, 61320, false, false)},    // cross-rank, same channel
	}
	var b LaneBatch
	var st simrand.State
	for i, faults := range trials {
		b.Add(i, st, faults)
	}
	lv.EvaluateBatch(&b)
	if b.Voided() != 0 {
		t.Fatalf("unexpected voided lanes %#x", b.Voided())
	}
	var want, got []TrialOutcome
	for L, faults := range trials {
		want = ev.EvaluateInto(faults, want)
		got = lv.AppendLaneOutcomes(L, got)
		for s := range schemes {
			if math.Float64bits(got[s].FailTime) != math.Float64bits(want[s].FailTime) || got[s].Kind != want[s].Kind {
				t.Fatalf("lane %d scheme %s: lanes (%v,%v) != indexed (%v,%v)",
					L, schemes[s].Name(), got[s].FailTime, got[s].Kind, want[s].FailTime, want[s].Kind)
			}
		}
	}
}

// TestLaneEvaluateBatchAllocFree holds the lane engine's hot path to the
// same zero-allocation bar as EvaluateInto: once the per-scheme masks and
// the scalar probe's scratch are warm, judging a full 64-lane batch must
// not touch the heap.
func TestLaneEvaluateBatchAllocFree(t *testing.T) {
	cfg := denseConfig(100)
	gen := newGenerator(&cfg)
	ev := NewEvaluator(&cfg, AllSchemes())
	lv := NewLaneEvaluator(ev)
	rng := simrand.New(9)
	var b LaneBatch
	var st simrand.State
	for L := 0; L < LaneWidth; L++ {
		b.Add(L, st, gen.Trial(rng, nil))
	}
	lv.EvaluateBatch(&b) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		lv.EvaluateBatch(&b)
	})
	if allocs != 0 {
		t.Fatalf("EvaluateBatch allocates %v times per batch, want 0", allocs)
	}
}

// TestLaneEngineMetrics: the campaign publishes lane judging telemetry
// (trials_evaluated covers every judged lane) next to its tallies.
func TestLaneEngineMetrics(t *testing.T) {
	cfg := denseConfig(100)
	reg := obs.NewRegistry()
	opts := CampaignOptions{Trials: 20_000, Seed: 5, Metrics: reg}
	rep := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)

	snap := reg.Snapshot().Counters
	if snap["campaign.trials_done"] != rep.Trials {
		t.Fatalf("trials_done %d != report %d", snap["campaign.trials_done"], rep.Trials)
	}
	if snap["campaign.lane_batches"] == 0 {
		t.Fatal("lane_batches never ticked")
	}
	if snap["campaign.trials_evaluated"] == 0 {
		t.Fatal("trials_evaluated never ticked under the lane engine")
	}
	// Scalar probes exist at this density (multi-record rank collisions).
	if snap["campaign.lane_probes"] == 0 {
		t.Fatal("lane_probes never ticked at 100x density")
	}
}

// TestLaneEventHashMatches pins the laneRec digestion against the scalar
// path: the pre-mixed key in a laneRec must reproduce eventHash bit for
// bit, because direct-pass failure kinds (SECDED SDC-vs-DUE splits, the
// Chipkill hash thresholds) are decided by this value.
func TestLaneEventHashMatches(t *testing.T) {
	rng := simrand.New(99)
	for i := 0; i < 10_000; i++ {
		r := FaultRecord{
			Channel:   int(rng.Uint64n(8)),
			Rank:      int(rng.Uint64n(4)),
			Chip:      int(rng.Uint64n(64)),
			Gran:      dram.Granularity(rng.Uint64n(uint64(dram.NumGranularities))),
			Start:     rng.Float64() * 7 * 365 * 24,
			Transient: rng.Uint64n(2) == 0,
			Silent:    rng.Uint64n(2) == 0,
		}
		lr := digestRecord(&r)
		if got, want := laneEventHash(&lr), eventHash(&r); got != want {
			t.Fatalf("record %+v: laneEventHash %v != eventHash %v", r, got, want)
		}
		if lr.silent != isSilentRecord(&r) || lr.start != r.Start ||
			lr.ch != int32(r.Channel) || lr.rk != int32(r.Rank) {
			t.Fatalf("record %+v: digest %+v drops a field", r, lr)
		}
	}
}

// TestDigestRecordMatchesSigOf pins digestRecord's hand-fused signature
// against sigOf on records inside an x4 fleet, the widest stock rank.
func TestDigestRecordMatchesSigOf(t *testing.T) {
	rng := simrand.New(7)
	for i := 0; i < 50_000; i++ {
		r := FaultRecord{
			Channel:            int(rng.Uint64n(8)),
			Rank:               int(rng.Uint64n(4)),
			Chip:               int(rng.Uint64n(18)),
			Gran:               dram.Granularity(rng.Uint64n(uint64(dram.NumGranularities))),
			Transient:          rng.Uint64n(2) == 0,
			Silent:             rng.Uint64n(2) == 0,
			EscalatedByScaling: rng.Uint64n(2) == 0,
		}
		if got, want := digestRecord(&r).sig, sigOf(&r); got != want {
			t.Fatalf("record %+v: digestRecord sig %d != sigOf %d", r, got, want)
		}
	}
}
