package conformance

import (
	"context"
	"fmt"

	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
)

// FleetRunner ages a fleet on behalf of a claim check. The default is
// fleet.Run; tests substitute sabotaged runners (doubled FIT rates, dropped
// chunks) to demonstrate the fleet claim actually refutes them.
type FleetRunner func(ctx context.Context, cfg fleet.Config, opts fleet.Options) (*fleet.Summary, error)

// fleetFigure1Claim ties the fleet simulator back to the Monte-Carlo
// campaigns it is built from: aging N single-DIMM systems in the field
// simulator and running N single-DIMM campaign trials must measure the same
// 7-year XED failure probability (Wilson-interval band), and the fleet must
// log zero SDCs — under XED every field failure is a *detected* failure,
// which is what makes its EDAC ue_count trustworthy. A fleet bug that
// doubles arrival rates, drops chunks or mis-judges records moves the
// failure fraction outside the band and refutes the claim.
func fleetFigure1Claim() Claim {
	const band = 2.0
	return Claim{
		Name: "fleet/xed-field-rate-matches-campaign",
		Ref:  "§I Fig. 1, §VIII Table IV",
		Doc:  "fleet-simulated per-DIMM 7-year XED failure rate matches the single-DIMM campaign within 2x, with zero SDCs",
		Check: func(ctx context.Context, o Options) Verdict {
			schemes, err := o.Schemes(schemeXED)
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}
			n := o.MaxTrials / 4
			if n < o.Batch {
				n = o.Batch
			}

			fcfg := fleet.DefaultConfig()
			fcfg.DIMMs = n
			sum, err := o.Fleet(ctx, fcfg, fleet.Options{
				Seed:    batchSeed(o.Seed, "fleet/field", 0),
				Workers: o.Workers,
			})
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}

			// The campaign side is the same DIMM the fleet ages: one channel
			// of the §III system, judged by the same evaluator.
			ccfg := faultsim.DefaultConfig()
			ccfg.Channels = 1
			rep, err := o.Runner(ctx, ccfg, schemes, faultsim.CampaignOptions{
				Trials:  n,
				Seed:    batchSeed(o.Seed, "fleet/campaign", 0),
				Workers: o.Workers,
			})
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}

			kF, nF := sum.Tally.Failed, sum.Tally.DIMMs
			kC, nC := rep.Results[0].Failures, rep.Trials
			loF, hiF := faultsim.WilsonInterval(kF, nF)
			loC, hiC := faultsim.WilsonInterval(kC, nC)
			trials := nF + nC
			detail := fmt.Sprintf("fleet P=%.3g (%d/%d DIMMs, %d SDC) vs campaign P=%.3g (%d/%d trials), band %gx",
				float64(kF)/float64(nF), kF, nF, sum.Tally.SDCs,
				float64(kC)/float64(nC), kC, nC, band)
			switch {
			case sum.Tally.SDCs != 0:
				return Verdict{Status: Refuted, Detail: detail + " (fleet logged SDCs under XED)", Trials: trials, Confidence: 1}
			case hiF <= band*loC && hiC <= band*loF:
				return Verdict{Status: Confirmed, Detail: detail, Trials: trials, Confidence: 0.95}
			case loF > band*hiC || loC > band*hiF:
				return Verdict{Status: Refuted, Detail: detail, Trials: trials, Confidence: 0.95}
			}
			return Verdict{Status: Inconclusive, Detail: detail, Trials: trials}
		},
	}
}
