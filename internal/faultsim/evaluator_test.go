package faultsim

import (
	"math"
	"reflect"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

// equivalenceConfigs returns the config corners the optimized evaluator
// must match the reference probe on.
func equivalenceConfigs() []Config {
	base := DefaultConfig()
	overlap := DefaultConfig()
	overlap.RequireAddressOverlap = true
	scaling := DefaultConfig()
	scaling.ScalingRate = 1e-4
	noOnDie := DefaultConfig()
	noOnDie.OnDie = false
	noOnDieScaling := DefaultConfig()
	noOnDieScaling.OnDie = false
	noOnDieScaling.ScalingRate = 1e-4
	silent := DefaultConfig()
	silent.SilentWordFraction = 0.5
	return []Config{base, overlap, scaling, noOnDie, noOnDieScaling, silent}
}

// inflate multiplies every FIT rate so trials carry dense fault streams —
// the regime where the pre-index's sorting, tie-breaking and per-chip
// max/silent bookkeeping actually get exercised.
func inflate(cfg Config, factor float64) Config {
	fits := make(FITTable, len(cfg.FITs))
	copy(fits, cfg.FITs)
	for i := range fits {
		fits[i].Rate *= FIT(factor)
	}
	cfg.FITs = fits
	return cfg
}

// TestEvaluatorMatchesReferenceProbe holds the pre-indexed Evaluator to
// bit-identical (FailTime, FailKind) agreement with the O(n²) reference
// probe across randomized fault streams for all six schemes, including
// adversarial mutations (duplicated start times, same-chip pileups) that
// stress the tie-break and silent-count rules.
func TestEvaluatorMatchesReferenceProbe(t *testing.T) {
	schemes := AllSchemes()
	for ci, cfg := range equivalenceConfigs() {
		cfg := inflate(cfg, 100) // ~29 faults per trial
		gen := newGenerator(&cfg)
		ev := NewEvaluator(&cfg, schemes)
		rng := simrand.New(uint64(1000 + ci))
		mut := simrand.New(uint64(2000 + ci))
		var buf []FaultRecord
		var outs []TrialOutcome
		for trial := 0; trial < 250; trial++ {
			buf = gen.Trial(rng, buf)
			// Adversarial mutations: force start-time ties across
			// records and pile extra records onto already-hit chips.
			if len(buf) >= 2 && trial%3 == 0 {
				for m := 0; m < 4; m++ {
					i := mut.Intn(len(buf))
					j := mut.Intn(len(buf))
					buf[i].Start = buf[j].Start
					if buf[i].End <= buf[i].Start {
						buf[i].End = buf[i].Start + 1
					}
				}
				i := mut.Intn(len(buf))
				j := mut.Intn(len(buf))
				buf[i].Channel, buf[i].Rank, buf[i].Chip = buf[j].Channel, buf[j].Rank, buf[j].Chip
			}
			outs = ev.EvaluateInto(buf, outs)
			for s, scheme := range schemes {
				wantT, wantK := scheme.FailTimeKind(&cfg, buf)
				gotT, gotK := outs[s].FailTime, outs[s].Kind
				if math.Float64bits(gotT) != math.Float64bits(wantT) || gotK != wantK {
					t.Fatalf("config %d trial %d scheme %s: evaluator (%v, %v) != reference (%v, %v) on %d faults",
						ci, trial, scheme.Name(), gotT, gotK, wantT, wantK, len(buf))
				}
			}
		}
	}
}

// TestEvaluatorEmptyTrialOutcome pins what the campaign leans on when it
// gives unplanned trials no lane: an empty trial survives every scheme,
// except that scaling faults without On-Die ECC fail every trial, empty
// or not, as an SDC at hour 0 — the verdict RunChunk tallies wholesale.
func TestEvaluatorEmptyTrialOutcome(t *testing.T) {
	for _, onDie := range []bool{false, true} {
		for _, scaling := range []float64{0, 1e-4} {
			cfg := DefaultConfig()
			cfg.OnDie, cfg.ScalingRate = onDie, scaling
			fatal := !onDie && scaling > 0
			if fatal != NewEvaluator(&cfg, nil).scalingFatal {
				t.Fatalf("onDie=%v scaling=%v: scalingFatal disagrees", onDie, scaling)
			}
			want := TrialOutcome{FailTime: math.Inf(1), Kind: FailNone}
			if fatal {
				want = TrialOutcome{FailTime: 0, Kind: FailSDC}
			}
			schemes := append(AllSchemes(), NewRankErasureScheme("Rank0", 0, func(*Config, *FaultRecord) int { return 1 }))
			for s, out := range NewEvaluator(&cfg, schemes).EvaluateInto(nil, nil) {
				if out != want {
					t.Fatalf("onDie=%v scaling=%v: empty trial under %s = %+v, want %+v",
						onDie, scaling, schemes[s].Name(), out, want)
				}
			}
		}
	}
}

// TestEvaluatorHighWeightScheme: the probe carries weights at full width,
// so a scheme weighing records above 127 is judged exactly as the
// reference probe judges it — a narrow weight field would wrap and
// corrupt the probe totals.
func TestEvaluatorHighWeightScheme(t *testing.T) {
	cfg := DefaultConfig()
	// Synthetic organisation: every chip-level fault weighs 200 (an int8
	// would wrap it to -56) against a budget of 300, so two concurrent
	// faulty chips in a rank overflow the budget — but only if the
	// weights survive unclipped.
	heavy := &domainScheme{
		name:     "HeavyErasure",
		capacity: 300,
		weight: func(cfg *Config, r *FaultRecord) int {
			if visibleWeight(cfg, r) == 0 {
				return 0
			}
			return 200
		},
		kind: xedKind,
	}
	schemes := []Scheme{heavy, NewXED()}
	ev := NewEvaluator(&cfg, schemes)

	overlapping := []FaultRecord{
		mkRec(1, 0, 2, dram.GranChip, false, 50, cfg.LifetimeHours),
		mkRec(1, 0, 5, dram.GranChip, false, 60, cfg.LifetimeHours),
	}
	lone := []FaultRecord{
		mkRec(1, 0, 2, dram.GranChip, false, 50, cfg.LifetimeHours),
	}
	for name, faults := range map[string][]FaultRecord{"overlapping": overlapping, "lone": lone} {
		outs := ev.EvaluateInto(faults, nil)
		for s, scheme := range schemes {
			wantT, wantK := scheme.FailTimeKind(&cfg, faults)
			if math.Float64bits(outs[s].FailTime) != math.Float64bits(wantT) || outs[s].Kind != wantK {
				t.Fatalf("%s/%s: got (%v, %v), reference says (%v, %v)",
					name, scheme.Name(), outs[s].FailTime, outs[s].Kind, wantT, wantK)
			}
		}
	}
	// The scenario must actually exercise the overflow: two concurrent
	// 200-weight chips defeat the 300 budget, one does not.
	if got := ev.EvaluateInto(overlapping, nil)[0].FailTime; got != 60 {
		t.Fatalf("overlapping heavy faults: fail time %v, want 60", got)
	}
	if got := ev.EvaluateInto(lone, nil)[0].FailTime; !math.IsInf(got, 1) {
		t.Fatalf("lone heavy fault: fail time %v, want +Inf", got)
	}
}

// TestRunReportFullyDeterministic asserts Run returns identical Reports —
// every field, not just failure totals — for repeated calls with the same
// (cfg, trials, seed, workers).
func TestRunReportFullyDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	for _, workers := range []int{1, 3} {
		a, err := Run(cfg, AllSchemes(), 4000, 123, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, AllSchemes(), 4000, 123, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: repeated Run produced different Reports", workers)
		}
	}
}

// TestEvaluateIntoAllocFree locks in the zero-allocation hot path once the
// scratch buffers are warm.
func TestEvaluateIntoAllocFree(t *testing.T) {
	cfg := inflate(DefaultConfig(), 100)
	schemes := AllSchemes()
	gen := newGenerator(&cfg)
	ev := NewEvaluator(&cfg, schemes)
	rng := simrand.New(9)
	buf := gen.Trial(rng, nil)
	for len(buf) < 8 {
		buf = gen.Trial(rng, buf)
	}
	outs := ev.EvaluateInto(buf, nil) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		outs = ev.EvaluateInto(buf, outs)
	})
	if allocs != 0 {
		t.Fatalf("EvaluateInto allocates %v times per trial, want 0", allocs)
	}
}
