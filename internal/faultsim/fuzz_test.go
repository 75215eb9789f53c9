package faultsim

import (
	"math"
	"testing"

	"xedsim/internal/simrand"
)

// FuzzEvaluatorVsReference is the fuzzing face of the conformance
// differential harness: arbitrary (seed, config-shape) inputs generate a
// fault stream plus adversarial mutations, and the pre-indexed Evaluator
// must stay bit-identical to the O(n²) reference probe for every scheme.
// The fuzzer explores config corners (x4/x8, On-Die ECC off, scaling
// faults, address-overlap criterion, FIT inflation) that a fixed test
// table samples only pointwise.
func FuzzEvaluatorVsReference(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0), false)
	f.Add(uint64(1), uint8(0xff), uint8(200), true)
	f.Add(uint64(7), uint8(0b10101), uint8(50), false)
	f.Fuzz(func(t *testing.T, seed uint64, shape, inflateFactor uint8, mutate bool) {
		cfg := DefaultConfig()
		if shape&1 != 0 {
			cfg.ChipsPerRank = 18 // x4 organisation
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
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		schemes := AllSchemes()
		gen := newGenerator(&cfg)
		ev := NewEvaluator(&cfg, schemes)
		rng := simrand.New(seed)
		buf := gen.Trial(rng, nil)
		if mutate && len(buf) >= 2 {
			// Start-time ties and same-chip pileups stress the pre-index's
			// tie-break and per-chip bookkeeping.
			mut := simrand.New(seed ^ 0x9e3779b97f4a7c15)
			for m := 0; m < 4; m++ {
				i, j := mut.Intn(len(buf)), mut.Intn(len(buf))
				buf[i].Start = buf[j].Start
				if buf[i].End <= buf[i].Start {
					buf[i].End = buf[i].Start + 1
				}
			}
			i, j := mut.Intn(len(buf)), mut.Intn(len(buf))
			buf[i].Channel, buf[i].Rank, buf[i].Chip = buf[j].Channel, buf[j].Rank, buf[j].Chip
		}
		outs := ev.EvaluateInto(buf, nil)
		for s, scheme := range schemes {
			wantT, wantK := scheme.FailTimeKind(&cfg, buf)
			if math.Float64bits(outs[s].FailTime) != math.Float64bits(wantT) || outs[s].Kind != wantK {
				t.Fatalf("scheme %s: evaluator (%v, %v) != reference (%v, %v) on %d faults (shape %#x, inflate %d)",
					scheme.Name(), outs[s].FailTime, outs[s].Kind, wantT, wantK, len(buf), shape, inflateFactor)
			}
		}
	})
}

// FuzzLaneVsIndexedEvaluator is the bit-sliced engine's differential
// fuzzer: it generates nTrials fault streams under a fuzzer-chosen config
// shape, packs them into LaneBatch words (including deliberately partial
// final batches), and demands that the LaneEvaluator's unpacked outcomes
// match the indexed Evaluator bit for bit on every (trial, scheme) pair.
// The scheme set fills the table word's eight slots: the stock
// organisations, a weight above the int8 limit that the scalar probe must
// carry at full width, and a hash-free capacity-1 channel-pair budget.
func FuzzLaneVsIndexedEvaluator(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(99), uint8(0xff), uint8(200), uint8(65))
	f.Add(uint64(7), uint8(0b10101), uint8(120), uint8(64))
	f.Add(uint64(3), uint8(0b00110), uint8(150), uint8(63))
	f.Add(uint64(1234), uint8(0b01000), uint8(80), uint8(130))
	f.Fuzz(func(t *testing.T, seed uint64, shape, inflateFactor, nTrials uint8) {
		if nTrials == 0 {
			t.Skip()
		}
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
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		heavy := func(w int) weightFunc {
			return func(cfg *Config, r *FaultRecord) int {
				if visibleWeight(cfg, r) == 0 {
					return 0
				}
				return w
			}
		}
		schemes := append(AllSchemes(),
			NewRankErasureScheme("Heavy130", 200, heavy(130)),
			&domainScheme{name: "PairErasure", dom: domainChannelPair, capacity: 1, weight: visibleWeight, kind: xedKind},
		)
		gen := newGenerator(&cfg)
		ev := NewEvaluator(&cfg, schemes)
		lv := NewLaneEvaluator(ev)
		rng := simrand.New(seed)

		trials := make([][]FaultRecord, nTrials)
		for i := range trials {
			trials[i] = gen.Trial(rng, nil)
		}
		var want, got []TrialOutcome
		var b LaneBatch
		var st simrand.State
		for base := 0; base < len(trials); base += LaneWidth {
			b.Reset()
			end := base + LaneWidth
			if end > len(trials) {
				end = len(trials)
			}
			for i := base; i < end; i++ {
				b.Add(i-base, st, trials[i])
			}
			lv.EvaluateBatch(&b)
			if v := b.Voided(); v != 0 {
				t.Fatalf("batch at %d voided lanes %#x with panic-free schemes", base, v)
			}
			for i := base; i < end; i++ {
				want = ev.EvaluateInto(trials[i], want[:0])
				got = lv.AppendLaneOutcomes(i-base, got[:0])
				for s := range schemes {
					if math.Float64bits(got[s].FailTime) != math.Float64bits(want[s].FailTime) || got[s].Kind != want[s].Kind {
						t.Fatalf("trial %d scheme %s: lanes (%v, %v) != indexed (%v, %v) on %d faults (shape %#x, inflate %d)",
							i, schemes[s].Name(), got[s].FailTime, got[s].Kind,
							want[s].FailTime, want[s].Kind, len(trials[i]), shape, inflateFactor)
					}
				}
			}
		}
	})
}
