package faultsim

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"xedsim/internal/simrand"
)

// benchStream captures the trial stream a Table I campaign actually
// judges: the generator's skip-sampling discards empty trials before the
// evaluator sees them, so the judging benchmarks replay the same
// campaign-filtered distribution (about one record per trial at stock
// rates) through every engine.
func benchStream(cfg *Config, n int) [][]FaultRecord {
	gen := newGenerator(cfg)
	rng := simrand.New(42)
	trials := make([][]FaultRecord, 0, n)
	for len(trials) < n {
		buf := gen.Trial(rng, nil)
		if len(buf) > 0 {
			trials = append(trials, buf)
		}
	}
	return trials
}

// BenchmarkTableICampaign measures the Monte-Carlo hot loop on the
// paper's Table I operating point, both as isolated judging throughput
// over an identical captured stream (judge/engine=*: the campaign's lane
// engine and its two scalar oracles) and as the full plan-and-judge
// campaign (end2end).
func BenchmarkTableICampaign(b *testing.B) {
	const streamLen = 8192
	cfg := DefaultConfig()
	schemes := AllSchemes()
	trials := benchStream(&cfg, streamLen)

	b.Run("judge/engine=indexed", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		var outs []TrialOutcome
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, faults := range trials {
				outs = ev.EvaluateInto(faults, outs)
				for s := range outs {
					if !math.IsInf(outs[s].FailTime, 1) {
						sink += outs[s].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	b.Run("judge/engine=reference", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		var outs []TrialOutcome
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, faults := range trials {
				outs = ev.referenceInto(faults, outs)
				for s := range outs {
					if !math.IsInf(outs[s].FailTime, 1) {
						sink += outs[s].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	b.Run("judge/engine=lanes", func(b *testing.B) {
		ev := NewEvaluator(&cfg, schemes)
		lv := NewLaneEvaluator(ev)
		// Pre-pack once: in the campaign the generator appends records
		// straight into the batch (no per-trial copy), so packing is not
		// part of the judging step being measured.
		var st simrand.State
		batches := make([]*LaneBatch, 0, streamLen/LaneWidth)
		for base := 0; base < len(trials); base += LaneWidth {
			bt := new(LaneBatch)
			for i := base; i < base+LaneWidth && i < len(trials); i++ {
				bt.Add(i-base, st, trials[i])
			}
			batches = append(batches, bt)
		}
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, bt := range batches {
				lv.EvaluateBatch(bt)
				// Consume outcomes the way flushBatch does: failing
				// lanes only, via the per-scheme fail masks.
				for s := range schemes {
					for m := lv.fail[s]; m != 0; m &= m - 1 {
						L := bits.TrailingZeros64(m)
						sink += lv.outs[s*LaneWidth+L].FailTime
					}
				}
			}
		}
		b.ReportMetric(float64(streamLen*b.N)/b.Elapsed().Seconds(), "trials/s")
		_ = sink
	})

	b.Run("end2end", func(b *testing.B) {
		const campaignTrials = 200_000
		for i := 0; i < b.N; i++ {
			_, err := RunCampaign(context.Background(), cfg, schemes, CampaignOptions{
				Trials: campaignTrials, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(campaignTrials*b.N)/b.Elapsed().Seconds(), "trials/s")
	})
}
