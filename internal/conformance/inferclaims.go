package conformance

import (
	"context"
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/infer"
	"xedsim/internal/simrand"
)

// Inference claims: the BEER/HARP-style related-work scenario (ROADMAP
// item 3). These are exhaustive — the probe sweep enumerates every check
// support and the profiler's fault plants are deterministic — so Confirmed
// verdicts carry confidence 1.

// inferGeom is a small chip; recovery probes one word, profiling a few.
func inferGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 32, ColsPerRow: 8}
}

// beerRecoveryClaim is the tentpole's acceptance gate: the BEER-style
// probe pass, looking only at bus-visible data from a black-box chip,
// recovers a randomly drawn SECDED code's parity-check matrix exactly —
// bit-for-bit H equality — and does the same for the three named codes up
// to canonical form (the only form black-box inference can distinguish).
func beerRecoveryClaim() Claim {
	return Claim{
		Name: "infer/beer-recovers-random-code",
		Ref:  "BEER (arXiv:2009.07985)",
		Doc:  "check-bit probe sweeps recover randomly drawn and named on-die H-matrices exactly",
		Check: func(ctx context.Context, o Options) Verdict {
			var probes uint64
			const draws = 6
			for i := 0; i < draws; i++ {
				if err := ctx.Err(); err != nil {
					return Verdict{Status: Errored, Err: err, Trials: probes}
				}
				code := ecc.RandomSECDED(simrand.New(batchSeed(o.Seed, "infer/beer", i)))
				chip := dram.NewChip(inferGeom(), code)
				got, ev, err := infer.RecoverHMatrix(chip, infer.BEEROptions{Rounds: 1, Seed: o.Seed + uint64(i)})
				if ev != nil {
					probes += uint64(ev.ProbeCount)
				}
				if err != nil {
					return Verdict{Status: Refuted, Confidence: 1, Trials: probes,
						Detail: fmt.Sprintf("draw %d (%s): %v", i, code.Name(), err)}
				}
				if got != code.Matrix() {
					return Verdict{Status: Refuted, Confidence: 1, Trials: probes,
						Detail: fmt.Sprintf("draw %d (%s): recovered H differs from the drawn H", i, code.Name())}
				}
			}
			// The named codes recover up to canonical form: Hamming spells
			// its syndromes differently, the codeword set is what a black
			// box exposes.
			for _, code := range secdedCodecs() {
				want, err := code.Matrix().Canonical()
				if err != nil {
					return Verdict{Status: Errored, Err: err, Trials: probes}
				}
				chip := dram.NewChip(inferGeom(), code)
				got, ev, err := infer.RecoverHMatrix(chip, infer.BEEROptions{Seed: o.Seed})
				if ev != nil {
					probes += uint64(ev.ProbeCount)
				}
				if err != nil {
					return Verdict{Status: Refuted, Confidence: 1, Trials: probes,
						Detail: fmt.Sprintf("%s: %v", code.Name(), err)}
				}
				if got != want {
					return Verdict{Status: Refuted, Confidence: 1, Trials: probes,
						Detail: fmt.Sprintf("%s: recovered H differs from canonical form", code.Name())}
				}
			}
			return Verdict{Status: Confirmed, Confidence: 1, Trials: probes,
				Detail: fmt.Sprintf("%d random draws + %d named codes recovered bit-for-bit over %d probes",
					draws, len(secdedCodecs()), probes)}
		},
	}
}

// harpProfilingClaim checks the HARP-style post-correction profiler: over
// chips with planted permanent faults, profiling must flag exactly the
// words whose damage exceeds the on-die code's correction power as
// uncorrectable, and exactly the faulty words as at-risk — no false
// positives on clean words, no misses.
func harpProfilingClaim() Claim {
	return Claim{
		Name: "infer/harp-flags-uncorrectable",
		Ref:  "HARP (arXiv:2109.12697)",
		Doc:  "post-correction profiling flags exactly the on-die-uncorrectable words",
		Check: func(ctx context.Context, o Options) Verdict {
			var reads uint64
			for i, code := range secdedCodecs() {
				if err := ctx.Err(); err != nil {
					return Verdict{Status: Errored, Err: err, Trials: reads}
				}
				rng := simrand.New(batchSeed(o.Seed, "infer/harp", i))
				chip := dram.NewChip(inferGeom(), code)
				geom := chip.Geometry()
				// Plant one single-bit (correctable) and one double-bit
				// (uncorrectable) permanent fault at distinct addresses,
				// and keep one address clean.
				addr := func(n int) dram.WordAddr {
					return dram.WordAddr{Bank: n % geom.Banks, Row: rng.Intn(geom.RowsPerBank), Col: rng.Intn(geom.ColsPerRow)}
				}
				clean, atRisk, broken := addr(0), addr(1), addr(2)
				bitA := rng.Intn(64)
				bitB := (bitA + 1 + rng.Intn(63)) % 64
				chip.InjectFault(dram.NewBitFault(atRisk, rng.Intn(64), false))
				chip.InjectFault(dram.NewWordFault(broken, 1<<uint(bitA)|1<<uint(bitB), 0, false))
				p := infer.ProfileChip(chip, []dram.WordAddr{clean, atRisk, broken}, infer.HARPOptions{Rounds: 8, Seed: o.Seed + uint64(i)})
				for _, w := range p.Words {
					reads += uint64(w.Reads)
				}
				uncorr := p.PredictUncorrectable()
				risk := p.PredictAtRisk()
				detail := func(msg string) string {
					return fmt.Sprintf("%s: %s (uncorrectable %v, at-risk %v)", code.Name(), msg, uncorr, risk)
				}
				if len(uncorr) != 1 || uncorr[0] != broken {
					return Verdict{Status: Refuted, Confidence: 1, Trials: reads,
						Detail: detail("uncorrectable set is not exactly the double-bit word")}
				}
				if len(risk) != 2 || risk[0] != atRisk || risk[1] != broken {
					return Verdict{Status: Refuted, Confidence: 1, Trials: reads,
						Detail: detail("at-risk set is not exactly the two faulty words")}
				}
				if p.Words[0].AtRisk() {
					return Verdict{Status: Refuted, Confidence: 1, Trials: reads,
						Detail: detail("clean word flagged")}
				}
			}
			return Verdict{Status: Confirmed, Confidence: 1, Trials: reads,
				Detail: fmt.Sprintf("%d profiling reads over %d codecs classified every planted fault correctly",
					reads, len(secdedCodecs()))}
		},
	}
}
