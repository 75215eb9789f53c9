package faultsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// refBoundedColumn reimplements IntnSampler.Fill's canonical order with
// plain scalar code and locally derived mask/Lemire constants: one bulk
// word column, then per-index acceptance with redraws in ascending order.
func refBoundedColumn(rng *simrand.Source, count, n int) []int32 {
	words := make([]uint64, count)
	for i := range words {
		words[i] = rng.Uint64()
	}
	dst := make([]int32, count)
	un := uint64(n)
	if un&(un-1) == 0 {
		mask := un - 1
		for i, v := range words {
			dst[i] = int32(v & mask)
		}
		return dst
	}
	threshold := -un % un
	for i, v := range words {
		for {
			hi, lo := bits.Mul64(v, un)
			if lo >= threshold {
				dst[i] = int32(hi)
				break
			}
			v = rng.Uint64()
		}
	}
	return dst
}

// referenceBatchTrials is the differential-fuzz reference for the batch
// generator: it reproduces the canonical batch draw order (documented on
// batchPlan.build) with straightforward scalar loops and simrand
// primitives that are themselves unit-tested, then packs records through the
// shared emitPlaced. Any reordering or off-by-one in the optimised SoA
// plan/pack path shows up as a record-level mismatch.
func referenceBatchTrials(cfg *Config, n int, seed uint64) [][]FaultRecord {
	rng := simrand.New(seed)
	g := newGenerator(cfg)
	out := make([][]FaultRecord, n)
	if g.totalMean <= 0 {
		return out
	}
	aging := cfg.Aging
	mean := g.totalMean
	if aging.enabled() {
		mean *= aging.Peak()
	}
	ps := simrand.NewPoissonSampler(mean)
	tp := simrand.NewTruncPoisson(mean)

	// 1. Arrival runs: geometric zero-run, then zero-truncated count —
	// stopping without a count draw once the run covers the rest of the
	// chunk.
	type arrival struct{ pos, count int }
	var plan []arrival
	remaining := n
	pos := -1
	for remaining > 0 {
		skip := ps.SkipZeros(rng)
		if skip >= remaining {
			break
		}
		pos += skip + 1
		plan = append(plan, arrival{pos, tp.Sample(rng)})
		remaining -= skip + 1
	}

	// 2. Columns. Under aging: candidate-onset column, thinning column,
	// per-run compaction. Then the class-uniform column, the onset column
	// (flat only), and the three geometry columns.
	var onsets []float64
	var positions, counts []int
	if aging.enabled() {
		cand := 0
		for _, p := range plan {
			cand += p.count
		}
		xs := make([]float64, cand)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		thins := make([]float64, cand)
		for i := range thins {
			thins[i] = rng.Float64()
		}
		peak := aging.Peak()
		ci := 0
		for _, p := range plan {
			kept := 0
			for j := 0; j < p.count; j++ {
				if thins[ci] < aging.Multiplier(xs[ci])/peak {
					onsets = append(onsets, xs[ci])
					kept++
				}
				ci++
			}
			if kept > 0 {
				positions = append(positions, p.pos)
				counts = append(counts, kept)
			}
		}
	} else {
		for _, p := range plan {
			positions = append(positions, p.pos)
			counts = append(counts, p.count)
		}
	}
	records := 0
	for _, c := range counts {
		records += c
	}
	classes := make([]int, records)
	for i := range classes {
		classes[i] = g.classSamp.Lookup(rng.Float64())
	}
	if !aging.enabled() {
		onsets = make([]float64, records)
		for i := range onsets {
			onsets[i] = rng.Float64()
		}
	}
	chCol := refBoundedColumn(rng, records, cfg.Channels)
	rkCol := refBoundedColumn(rng, records, cfg.RanksPerChannel)
	chipCol := refBoundedColumn(rng, records, cfg.ChipsPerRank)

	// 3. Pack in trial order. Conditional per-record draws (ranges, silent
	// words, escalation, multi-rank expansion) live in emitPlaced, which is
	// shared by the scalar generator and covered by its own differentials.
	ri := 0
	for ti, p := range positions {
		var buf []FaultRecord
		for j := 0; j < counts[ti]; j++ {
			cls := g.classes[classes[ri]]
			buf = g.emitPlaced(rng, buf, cls, onsets[ri]*cfg.LifetimeHours,
				int(chCol[ri]), int(rkCol[ri]), int(chipCol[ri]))
			ri++
		}
		out[p] = buf
	}
	return out
}

func shapedConfig(t testing.TB, shape, inflateFactor uint8, aging bool) (Config, bool) {
	cfg := DefaultConfig()
	if shape&1 != 0 {
		cfg.ChipsPerRank = 18
	}
	if shape&2 != 0 {
		cfg.OnDie = false
	}
	if shape&4 != 0 {
		cfg.ScalingRate = 1e-4
	}
	if shape&8 != 0 {
		cfg.RequireAddressOverlap = true
	}
	if shape&16 != 0 {
		cfg.SilentWordFraction = 0.5
	}
	cfg.Channels = 1 + int(shape>>5&3)
	if inflateFactor > 0 {
		fits := make(FITTable, len(cfg.FITs))
		copy(fits, cfg.FITs)
		for i := range fits {
			fits[i].Rate *= FIT(inflateFactor)
		}
		cfg.FITs = fits
	}
	if aging {
		cfg.Aging = BathtubAging()
	}
	if err := cfg.Validate(); err != nil {
		return cfg, false
	}
	return cfg, true
}

func diffBatchVsReference(t *testing.T, cfg Config, trials int, seed uint64) {
	t.Helper()
	tr, err := CaptureTrace(cfg, trials, seed)
	if err != nil {
		t.Fatalf("CaptureTrace: %v", err)
	}
	want := referenceBatchTrials(&cfg, trials, seed)
	for i := range want {
		if !reflect.DeepEqual(tr.Trials[i], want[i]) {
			t.Fatalf("seed %d trial %d: batch generator\n%+v\nreference\n%+v",
				seed, i, tr.Trials[i], want[i])
		}
	}
}

func TestCaptureTraceGenMatchesReference(t *testing.T) {
	base := DefaultConfig()
	inflated := base
	inflated.FITs = make(FITTable, len(base.FITs))
	copy(inflated.FITs, base.FITs)
	for i := range inflated.FITs {
		inflated.FITs[i].Rate *= 100
	}
	agingCfg := inflated
	agingCfg.Aging = BathtubAging()
	x4 := inflated
	x4.ChipsPerRank = 18
	x4.Channels = 3
	noDie := inflated
	noDie.OnDie = false
	scaling := inflated
	scaling.ScalingRate = 1e-4
	scaling.SilentWordFraction = 0.5
	overlap := inflated
	overlap.RequireAddressOverlap = true
	quiet := base
	quiet.FITs = FITTable{{Gran: dram.GranBit, Transient: true, Rate: 0}}
	chipOnly := base
	chipOnly.FITs = FITTable{{Gran: dram.GranChip, Transient: false, Rate: 500}}
	chipOnly.RanksPerChannel = 3

	for name, cfg := range map[string]Config{
		"default": base, "inflated": inflated, "aging": agingCfg, "x4": x4,
		"no-ondie": noDie, "scaling": scaling, "overlap": overlap,
		"zero-rate": quiet, "multi-rank": chipOnly,
	} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				diffBatchVsReference(t, cfg, 2000, seed*7919)
			}
		})
	}
}

// TestCaptureBatchTraceValidates: CaptureTrace draws through the batch plan,
// so the same seed must capture the same trace and bad inputs are refused.
func TestCaptureBatchTraceValidates(t *testing.T) {
	cfg := DefaultConfig()
	a, err := CaptureTrace(cfg, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureTrace(cfg, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed captured different traces")
	}
	if _, err := CaptureTrace(cfg, 0, 11); err == nil {
		t.Fatal("zero trials accepted")
	}
	bad := cfg
	bad.Channels = 0
	if _, err := CaptureTrace(bad, 500, 11); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// FuzzBatchGenVsScalar is the batch generator's differential fuzzer, the
// generation-side sibling of FuzzLaneVsIndexedEvaluator: arbitrary
// (seed, config-shape, FIT inflation, trial-count, aging) inputs drive the
// SoA plan/pack path and its output must match, record for record, the
// scalar-primitive reference that spells out the canonical batch draw
// order. The batch stream is deliberately not bit-identical to the scalar
// generator's (draw order differs); exact distribution is proven separately
// by the law-level tests and the conformance differential.
func FuzzBatchGenVsScalar(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0), uint8(1), false)
	f.Add(uint64(99), uint8(0xff), uint8(200), uint8(64), false)
	f.Add(uint64(7), uint8(0b10101), uint8(120), uint8(200), true)
	f.Add(uint64(3), uint8(0b00110), uint8(150), uint8(17), true)
	f.Add(uint64(1234), uint8(0b01000), uint8(80), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed uint64, shape, inflateFactor, nTrials uint8, aging bool) {
		if nTrials == 0 {
			t.Skip()
		}
		cfg, ok := shapedConfig(t, shape, inflateFactor, aging)
		if !ok {
			t.Skip()
		}
		diffBatchVsReference(t, cfg, int(nTrials), seed)
	})
}

// TestBatchCampaignEngineAndWorkerInvariance pins the determinism contract
// of the one campaign path: for fixed (cfg, schemes, Trials, Seed) the
// report is bit-identical across worker counts and equal to both scalar
// judges — the pre-indexed Evaluator and the O(n²) reference — run over
// the same planned chunks.
func TestBatchCampaignEngineAndWorkerInvariance(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	opts := campaignTestOpts()
	for judge, fn := range oracleJudges {
		want := oracleCampaign(t, cfg, schemes, opts, fn)
		for _, workers := range []int{1, 4, 16} {
			opts.Workers = workers
			rep := mustCampaign(t, context.Background(), cfg, schemes, opts)
			if rep.Trials != uint64(opts.Trials) {
				t.Fatalf("workers=%d: tallied %d of %d trials", workers, rep.Trials, opts.Trials)
			}
			sameCampaign(t, fmt.Sprintf("workers=%d vs %s", workers, judge), rep, want)
		}
	}
}

// TestBatchVsScalarCampaignLaw: the campaign's planned streams and the
// scalar generator's differ, so their tallies differ — but only within
// Monte-Carlo noise. A per-scheme 6-sigma gate over an inflated-FIT
// campaign catches any systematic distributional skew in the batch plan.
func TestBatchVsScalarCampaignLaw(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = make(FITTable, len(DefaultConfig().FITs))
	copy(cfg.FITs, DefaultConfig().FITs)
	for i := range cfg.FITs {
		cfg.FITs[i].Rate *= 100
	}
	schemes := AllSchemes()
	opts := CampaignOptions{Trials: 100_000, Seed: 424242, Workers: 4}
	if testing.Short() {
		opts.Trials = 25_000
	}
	scalar := scalarCampaign(t, cfg, schemes, opts)
	batch := mustCampaign(t, context.Background(), cfg, schemes, opts)
	for i := range schemes {
		a, b := scalar.Results[i], batch.Results[i]
		for _, v := range []struct {
			name   string
			sa, sb uint64
		}{
			{"failures", a.Failures, b.Failures},
			{"dues", a.DUEs, b.DUEs},
			{"sdcs", a.SDCs, b.SDCs},
		} {
			fa, fb := float64(v.sa), float64(v.sb)
			if tol := 6*math.Sqrt(fa+fb+10) + 1; math.Abs(fa-fb) > tol {
				t.Errorf("%s %s: scalar %d vs batch %d (tol %.1f)",
					a.SchemeName, v.name, v.sa, v.sb, tol)
			}
		}
	}
}

// TestBatchCampaignCheckpointResume: a campaign interrupted mid-run
// resumes to the bit-identical report of an uninterrupted one — the plan is
// a pure function of the chunk substream, so re-planning a chunk after
// resume regenerates exactly the trials the lost worker would have judged.
func TestBatchCampaignCheckpointResume(t *testing.T) {
	cfg := DefaultConfig()
	schemes := AllSchemes()
	opts := campaignTestOpts()
	full := mustCampaign(t, context.Background(), cfg, schemes, opts)

	path := t.TempDir() + "/batch.ckpt"
	ctx, cancel := context.WithCancel(context.Background())
	iopts := opts
	iopts.Workers = 4
	iopts.CheckpointPath = path
	iopts.OnChunk = func(done, total int) {
		if done >= total/3 {
			cancel()
		}
	}
	rep, err := RunCampaign(ctx, cfg, schemes, iopts)
	cancel()
	if err == nil && rep.Trials >= rep.Requested {
		t.Skip("cancel raced ahead of the workers; nothing to resume")
	}

	ropts := iopts
	ropts.OnChunk = nil
	resumed := mustCampaign(t, context.Background(), cfg, schemes, ropts)
	if !reflect.DeepEqual(resumed.Results, full.Results) {
		t.Fatalf("resumed batch campaign diverged:\n%+v\nvs\n%+v", resumed.Results, full.Results)
	}
}

// TestBatchPlanZeroAllocs pins the steady-state allocation contract of the
// chunk loop: after warm-up on larger chunks (so every reused column has
// seen its high-water mark), planning and emitting a chunk allocates
// nothing, and neither does a whole campaign chunk — plan, pack, judge,
// tally — with metrics attached.
func TestBatchPlanZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = make(FITTable, len(DefaultConfig().FITs))
	copy(cfg.FITs, DefaultConfig().FITs)
	for i := range cfg.FITs {
		cfg.FITs[i].Rate *= 50
	}
	g := newGenerator(&cfg)
	arr := newArrivalSamplers(g.genTables)
	var p batchPlan
	rng := simrand.New(7)
	var buf []FaultRecord
	emitChunk := func(n int) {
		p.build(g.genTables, &arr, rng, n)
		for i := 0; i < p.emitted(); i++ {
			buf = p.emitTrial(g, rng, i, buf[:0])
		}
	}
	for i := 0; i < 50; i++ {
		emitChunk(4096) // 2x the measured chunk: columns reach their high-water mark
	}
	if allocs := testing.AllocsPerRun(100, func() { emitChunk(2048) }); allocs != 0 {
		t.Fatalf("plan+emit allocated %v times per chunk, want 0", allocs)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	reg := obs.NewRegistry()
	met := newCampaignMetrics(reg, AllSchemes())
	w := newCampaignWorker(newCampaignTables(&cfg, AllSchemes()), 7, 7)
	w.shape = true
	w.recsPerTrial, w.skipRun = met.recsPerTrial.Batch(), met.skipRun.Batch()
	for c := 0; c < 10; c++ {
		w.RunChunk(c, 0, 4096)
	}
	c := 10
	if allocs := testing.AllocsPerRun(20, func() {
		w.RunChunk(c, 0, 2048)
		w.recsPerTrial.Flush()
		w.skipRun.Flush()
		c++
	}); allocs != 0 {
		t.Fatalf("a metered campaign chunk allocated %v times, want 0", allocs)
	}
	if reg.Snapshot().Histograms["faultsim.gen.records_per_trial"].Count == 0 {
		t.Fatal("metered chunks published no plan shape")
	}
}

func TestBatchGenMetricsShape(t *testing.T) {
	cfg := DefaultConfig()
	reg := obs.NewRegistry()
	opts := campaignTestOpts()
	opts.Metrics = reg
	rep := mustCampaign(t, context.Background(), cfg, AllSchemes(), opts)
	snap := reg.Snapshot()
	wantChunks := uint64((opts.Trials + DefaultChunkSize - 1) / DefaultChunkSize)
	if got := snap.Counters["faultsim.gen.batch_refills"]; got != wantChunks {
		t.Fatalf("batch_refills = %d, want %d (one plan per chunk)", got, wantChunks)
	}
	h := snap.Histograms["faultsim.gen.records_per_trial"]
	if h.Count == 0 {
		t.Fatal("records_per_trial histogram empty")
	}
	if s := snap.Histograms["faultsim.gen.skip_run"]; s.Count != h.Count {
		t.Fatalf("skip_run count %d != records_per_trial count %d (one run per emitted trial)", s.Count, h.Count)
	}
	if rep.Trials != uint64(opts.Trials) {
		t.Fatalf("tallied %d of %d trials", rep.Trials, opts.Trials)
	}
}

// TestEmitAtMultiRankExpansion is the boundary table test for the
// multi-rank (GranChip) expansion: for every rank count the event yields
// exactly RanksPerChannel records that agree on everything but Rank, carry
// ranks 0..R-1 in order, and share one EventID.
func TestEmitAtMultiRankExpansion(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4} {
		for _, transient := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.RanksPerChannel = ranks
			g := newGenerator(&cfg) // withRanges=true: Range must replicate too
			cls := ClassRate{Gran: dram.GranChip, Transient: transient, Rate: 1}
			rng := simrand.New(uint64(ranks)*2 + 1)
			buf := g.emitAt(rng, nil, cls, 1234.5)
			if len(buf) != ranks {
				t.Fatalf("ranks=%d transient=%v: expansion yielded %d records", ranks, transient, len(buf))
			}
			for i := range buf {
				if buf[i].Rank != i {
					t.Fatalf("ranks=%d: record %d has Rank %d", ranks, i, buf[i].Rank)
				}
				norm := buf[i]
				norm.Rank = buf[0].Rank
				if norm != buf[0] {
					t.Fatalf("ranks=%d: record %d differs beyond Rank:\n%+v\nvs\n%+v", ranks, i, buf[i], buf[0])
				}
			}
			if buf[0].EventID == 0 {
				t.Fatalf("ranks=%d: multi-rank record missing EventID", ranks)
			}
		}
	}
}

// TestBatchEventIDChunkReset: EventIDs only group records within a trial,
// and the campaign rewinds the counter at every chunk boundary so chunks
// stay pure functions of their substream. The batch pack loop must preserve
// both properties: IDs restart from 1 after resetEvents, distinct events in
// one chunk get distinct IDs, and each event's records stay contiguous with
// rank 0..R-1 grouping.
func TestBatchEventIDChunkReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RanksPerChannel = 3
	cfg.FITs = FITTable{{Gran: dram.GranChip, Transient: false, Rate: 2000}}
	g := newGenerator(&cfg)
	arr := newArrivalSamplers(g.genTables)
	var p batchPlan
	rng := simrand.New(0)
	var buf []FaultRecord
	for chunk := uint64(0); chunk < 4; chunk++ {
		rng.SeedStream(42, chunk)
		g.resetEvents()
		p.build(g.genTables, &arr, rng, 512)
		if p.emitted() == 0 {
			t.Fatalf("chunk %d: no multi-rank events at rate 2000", chunk)
		}
		next := uint64(1)
		for i := 0; i < p.emitted(); i++ {
			buf = p.emitTrial(g, rng, i, buf[:0])
			if len(buf)%cfg.RanksPerChannel != 0 {
				t.Fatalf("chunk %d trial %d: %d records not a multiple of %d ranks", chunk, i, len(buf), cfg.RanksPerChannel)
			}
			for r := 0; r < len(buf); r += cfg.RanksPerChannel {
				for k := 0; k < cfg.RanksPerChannel; k++ {
					rec := buf[r+k]
					if rec.EventID != next {
						t.Fatalf("chunk %d trial %d: EventID %d, want %d (counter must restart per chunk)", chunk, i, rec.EventID, next)
					}
					if rec.Rank != k {
						t.Fatalf("chunk %d trial %d event %d: rank %d at offset %d", chunk, i, next, rec.Rank, k)
					}
				}
				next++
			}
		}
	}
}
