package conformance

import (
	"context"
	"fmt"
	"math"

	"xedsim/internal/faultsim"
	"xedsim/internal/simrand"
)

// Differential claims: the pre-indexed Monte-Carlo Evaluator is an
// optimisation of the reference probe, and optimisations rot. This harness
// regenerates the equivalence evidence over *randomized* configurations —
// corners a hand-written table would not think to cover — every time the
// conformance gate runs.

// heavyWeight builds a weight function that books `w` per visible chip
// fault. Weights of 120 and 130 sit either side of 127, the int8 limit:
// the Evaluator's concurrency probe must carry both at full width, and a
// weight field narrowed to a byte would wrap 130 into a negative total on
// exactly the dense configs this claim draws.
func heavyWeight(w int) func(cfg *faultsim.Config, r *faultsim.FaultRecord) int {
	return func(cfg *faultsim.Config, r *faultsim.FaultRecord) int {
		if faultsim.VisibleWeight(cfg, r) == 0 {
			return 0
		}
		return w
	}
}

// differentialSchemes returns the scheme set each random config is judged
// under: the six paper organisations plus two synthetic heavy-erasure
// schemes either side of the int8 limit — eight, the lane engine's full
// table word.
func differentialSchemes() []faultsim.Scheme {
	schemes := faultsim.AllSchemes()
	schemes = append(schemes,
		faultsim.NewRankErasureScheme("Heavy120", 200, heavyWeight(120)),
		faultsim.NewRankErasureScheme("Heavy130", 200, heavyWeight(130)),
	)
	return schemes
}

// randomConfig draws one configuration: x4 or x8 chips (18 or 9 per rank),
// scaling faults on or off, On-Die ECC present or absent, varying silent
// fractions, both compound-failure criteria, and FIT rates inflated up to
// 300x so streams are dense enough to collide records in time and space.
func randomConfig(rng *simrand.Source) faultsim.Config {
	cfg := faultsim.DefaultConfig()
	if rng.Intn(2) == 0 {
		cfg.ChipsPerRank = 18 // x4 organisation
	}
	cfg.Channels = 1 + rng.Intn(4)
	cfg.RanksPerChannel = 1 + rng.Intn(2)
	if cfg.Channels%2 == 1 && rng.Intn(2) == 0 {
		cfg.Channels++ // keep some configs Double-Chipkill-pairable
	}
	cfg.OnDie = rng.Intn(4) != 0
	if rng.Intn(2) == 0 {
		cfg.ScalingRate = 1e-4
	}
	cfg.SilentWordFraction = []float64{0, 0.008, 0.5, 1}[rng.Intn(4)]
	cfg.RequireAddressOverlap = rng.Intn(2) == 0
	factor := faultsim.FIT(1 + rng.Intn(300))
	fits := make(faultsim.FITTable, len(cfg.FITs))
	copy(fits, cfg.FITs)
	for i := range fits {
		fits[i].Rate *= factor
	}
	cfg.FITs = fits
	return cfg
}

// evaluatorDifferentialClaim cross-checks Evaluator.EvaluateInto AND the
// bit-sliced LaneEvaluator against the reference FailTimeKind probe over
// o.Configs random configurations x o.TrialsPerConfig captured trials
// each, for all eight schemes. Each config's trials are additionally
// packed into lane batches (the final batch deliberately partial) so the
// word-parallel mask pass and its scalar pair probe face the same
// randomized corners as the indexed engine. Traces are captured through the
// campaigns' batch plan, so its plan/pack path faces the same thousand
// random corners. The claim is bit-identical three-way agreement —
// FailTime compared by float bits, kind by value — with zero tolerated
// divergences.
func evaluatorDifferentialClaim() Claim {
	return Claim{
		Name: "diff/evaluator-vs-reference",
		Ref:  "§III (FaultSim methodology)",
		Doc:  "pre-indexed Evaluator bit-identical to reference probe over random configs",
		Check: func(ctx context.Context, o Options) Verdict {
			rng := simrand.New(o.Seed + 4)
			schemes := differentialSchemes()
			var trials, comparisons uint64
			for c := 0; c < o.Configs; c++ {
				if err := ctx.Err(); err != nil {
					return Verdict{Status: Errored, Err: err, Trials: trials, Detail: "cancelled mid-sweep"}
				}
				cfg := randomConfig(rng)
				trace, err := faultsim.CaptureTrace(cfg, o.TrialsPerConfig, rng.Uint64())
				if err != nil {
					return Verdict{Status: Errored, Err: err,
						Detail: fmt.Sprintf("config %d rejected: %v", c, err)}
				}
				ev := faultsim.NewEvaluator(&cfg, schemes)
				lv := faultsim.NewLaneEvaluator(ev)
				var batch faultsim.LaneBatch
				var outs, laneOuts []faultsim.TrialOutcome
				var st simrand.State
				for base := 0; base < len(trace.Trials); base += faultsim.LaneWidth {
					batch.Reset()
					end := base + faultsim.LaneWidth
					if end > len(trace.Trials) {
						end = len(trace.Trials)
					}
					for i := base; i < end; i++ {
						batch.Add(i-base, st, trace.Trials[i])
					}
					lv.EvaluateBatch(&batch)
					if v := batch.Voided(); v != 0 {
						return Verdict{Status: Errored, Trials: trials,
							Detail: fmt.Sprintf("config %d: lane batch at %d voided lanes %#x with panic-free schemes", c, base, v)}
					}
					for i := base; i < end; i++ {
						faults := trace.Trials[i]
						outs = ev.EvaluateInto(faults, outs[:0])
						laneOuts = lv.AppendLaneOutcomes(i-base, laneOuts[:0])
						trials++
						for s, scheme := range schemes {
							wantT, wantK := scheme.FailTimeKind(&cfg, faults)
							comparisons++
							shaped := fmt.Sprintf("on %d faults (chips/rank=%d onDie=%v scaling=%v overlap=%v)",
								len(faults), cfg.ChipsPerRank, cfg.OnDie, cfg.ScalingRate, cfg.RequireAddressOverlap)
							if math.Float64bits(outs[s].FailTime) != math.Float64bits(wantT) || outs[s].Kind != wantK {
								return Verdict{Status: Refuted, Confidence: 1, Trials: trials,
									Detail: fmt.Sprintf("config %d trial %d scheme %s: evaluator (%v, %v) != reference (%v, %v) %s",
										c, i, scheme.Name(), outs[s].FailTime, outs[s].Kind, wantT, wantK, shaped)}
							}
							if math.Float64bits(laneOuts[s].FailTime) != math.Float64bits(wantT) || laneOuts[s].Kind != wantK {
								return Verdict{Status: Refuted, Confidence: 1, Trials: trials,
									Detail: fmt.Sprintf("config %d trial %d scheme %s: lane evaluator (%v, %v) != reference (%v, %v) %s",
										c, i, scheme.Name(), laneOuts[s].FailTime, laneOuts[s].Kind, wantT, wantK, shaped)}
							}
						}
					}
				}
			}
			return Verdict{Status: Confirmed, Confidence: 1, Trials: trials,
				Detail: fmt.Sprintf("%d configs x %d trials, %d (scheme, trial) comparisons, zero divergences",
					o.Configs, o.TrialsPerConfig, comparisons)}
		},
	}
}
