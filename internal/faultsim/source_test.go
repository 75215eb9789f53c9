package faultsim

import (
	"math"
	"reflect"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

func singleDIMMConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 1
	return cfg
}

func TestNewTrialSourceValidates(t *testing.T) {
	bad := singleDIMMConfig()
	bad.ScrubIntervalHours = 0
	if _, err := NewTrialSource(&bad); err == nil {
		t.Fatal("NewTrialSource accepted an invalid config")
	}
	cfg := singleDIMMConfig()
	if _, err := NewTrialSource(&cfg); err != nil {
		t.Fatalf("NewTrialSource rejected a valid config: %v", err)
	}
}

// TestTrialSourceMeanIsUnfiltered: the source must carry the FULL FIT
// table's arrival mean — including the single-bit classes campaign schemes
// filter out, because fleet telemetry counts their scrub CEs.
func TestTrialSourceMeanIsUnfiltered(t *testing.T) {
	cfg := singleDIMMConfig()
	src, err := NewTrialSource(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	chips := float64(cfg.TotalChips())
	for _, cls := range cfg.FITs {
		per := float64(cls.Rate) * 1e-9 * cfg.LifetimeHours
		if cls.Gran == dram.GranChip {
			want += per * float64(cfg.Channels)
		} else {
			want += per * chips
		}
	}
	if got := src.Mean(); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
}

// planTrials plans n trials of src from rng and returns them all, empty
// ones nil, failing t unless the skipped counts and the emitted trials
// account for exactly n.
func planTrials(t *testing.T, src *TrialSource, rng *simrand.Source, n int) [][]FaultRecord {
	t.Helper()
	src.Plan(rng, n)
	out := make([][]FaultRecord, n)
	at := 0
	var buf []FaultRecord
	for {
		skipped, recs := src.NextNonEmpty(rng, buf)
		buf = recs
		at += skipped
		if len(recs) == 0 {
			break
		}
		if at >= n {
			t.Fatalf("non-empty trial at %d of a %d-trial plan", at, n)
		}
		out[at] = append([]FaultRecord(nil), recs...)
		at++
	}
	if at != n {
		t.Fatalf("plan accounted for %d of %d trials", at, n)
	}
	return out
}

// TestTrialSourceEmpiricalMean: long-run arrival counts track Mean().
func TestTrialSourceEmpiricalMean(t *testing.T) {
	cfg := singleDIMMConfig()
	src, err := NewTrialSource(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(0)
	const plans, perPlan = 50, 4000
	var events int
	for p := uint64(0); p < plans; p++ {
		rng.SeedStream(99, p)
		for _, recs := range planTrials(t, src, rng, perPlan) {
			for j := range recs {
				// Count events, not records: multi-rank expansion copies
				// share their event's identity and must not inflate the
				// estimate.
				if recs[j].EventID == 0 || recs[j].Rank == 0 {
					events++
				}
			}
		}
	}
	const trials = plans * perPlan
	got := float64(events) / trials
	want := src.Mean()
	// 5-sigma band for a Poisson sum over `trials` draws.
	sigma := 5 * math.Sqrt(want/trials)
	if math.Abs(got-want) > sigma {
		t.Fatalf("empirical mean %v outside %v ± %v", got, want, sigma)
	}
}

// TestTrialSourceDrawsTheBatchPlan pins the source to the campaign planner:
// from the same RNG state its non-empty trials are CaptureTrace's, record
// for record and at the same places, whether the plan is asked for or
// made on demand, and whether or not the source planned before.
func TestTrialSourceDrawsTheBatchPlan(t *testing.T) {
	inflated := singleDIMMConfig()
	inflated.FITs = append(FITTable(nil), inflated.FITs...)
	for i := range inflated.FITs {
		inflated.FITs[i].Rate *= 100
	}
	aging := inflated
	aging.Aging = BathtubAging()
	multiRank := singleDIMMConfig()
	multiRank.RanksPerChannel = 3
	multiRank.FITs = FITTable{{Gran: dram.GranChip, Rate: 20000}, {Gran: dram.GranBit, Transient: true, Rate: 20000}}
	for name, cfg := range map[string]Config{
		"default": singleDIMMConfig(), "inflated": inflated, "aging": aging, "multi-rank": multiRank,
	} {
		t.Run(name, func(t *testing.T) {
			src, err := NewTrialSource(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				want, err := CaptureTrace(cfg, 3000, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := planTrials(t, src, simrand.New(seed), 3000); !reflect.DeepEqual(got, want.Trials) {
					t.Fatalf("seed %d: planned trials differ from CaptureTrace's", seed)
				}
			}

			want, err := CaptureTrace(cfg, DefaultChunkSize, 7)
			if err != nil {
				t.Fatal(err)
			}
			rng := simrand.New(7)
			src = src.Fork()
			got := make([][]FaultRecord, DefaultChunkSize)
			var buf []FaultRecord
			for at := 0; ; at++ {
				skipped, recs := src.NextNonEmpty(rng, buf)
				buf = recs
				if at += skipped; len(recs) == 0 {
					if at != DefaultChunkSize {
						t.Fatalf("an on-demand plan accounted for %d of %d trials", at, DefaultChunkSize)
					}
					break
				}
				got[at] = append([]FaultRecord(nil), recs...)
			}
			if !reflect.DeepEqual(got, want.Trials) {
				t.Fatal("an on-demand plan differs from CaptureTrace's")
			}
		})
	}
}

// TestTrialSourceStreamsAreReproducible: same (seed, stream) → identical
// records; different stream → different draws. Plan rewinds the EventIDs,
// so the record stream is a pure function of the substream, which is what
// the fleet's History replay depends on.
func TestTrialSourceStreamsAreReproducible(t *testing.T) {
	cfg := singleDIMMConfig()
	src, err := NewTrialSource(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed, stream uint64) [][]FaultRecord {
		rng := simrand.New(0)
		rng.SeedStream(seed, stream)
		return planTrials(t, src, rng, 10_000)
	}
	a, b := draw(1, 0), draw(1, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same substream produced different records")
	}
	if c := draw(1, 1); reflect.DeepEqual(a, c) {
		t.Fatal("different substreams produced identical records")
	}
}

// TestTrialSourceRecordsHaveRanges: the source always draws symbolic
// address ranges (a DIMM's regenerated history shows them), even though
// campaign generators only do so on demand.
func TestTrialSourceRecordsHaveRanges(t *testing.T) {
	cfg := singleDIMMConfig()
	src, err := NewTrialSource(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(0)
	rng.SeedStream(13, 0)
	seen := 0
	for _, recs := range planTrials(t, src, rng, 20_000) {
		for j := range recs {
			r := &recs[j]
			seen++
			if r.Range.Gran != r.Gran {
				t.Fatalf("record %d: range granularity %v != record granularity %v", j, r.Range.Gran, r.Gran)
			}
			if r.End < r.Start {
				t.Fatalf("record %d: End %v < Start %v", j, r.End, r.Start)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no fault records drawn; test has no power")
	}
}
