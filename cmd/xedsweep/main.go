// Command xedsweep runs parameter sweeps around the paper's operating
// point and emits CSV for plotting — the "what happens as DRAM keeps
// scaling" question the paper's conclusion raises (sub-20nm nodes, rising
// fault rates).
//
//	xedsweep -sweep fit     # multiply every Table I rate x0.5..x16
//	xedsweep -sweep scrub   # patrol-scrub interval 1h..1 month
//	xedsweep -sweep scaling # scaling-fault rate 1e-6..1e-3 (Table III++)
//	xedsweep -sweep silent  # on-die miss rate 0..5% (code-strength sweep)
//	xedsweep -sweep aging   # flat, bathtub, infant-mortality and wear-out profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"xedsim/internal/analysis"
	"xedsim/internal/chunkrun"
	"xedsim/internal/cli"
	"xedsim/internal/faultsim"
)

const cmd cli.Command = "xedsweep"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	sweep   string
	systems int
	seed    uint64
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.systems <= 0 {
		return fmt.Errorf("-systems must be positive, got %d", a.systems)
	}
	if a.systems > chunkrun.MaxItems {
		return fmt.Errorf("-systems must be at most %d, got %d", chunkrun.MaxItems, a.systems)
	}
	switch a.sweep {
	case "fit", "scrub", "scaling", "silent", "aging":
	default:
		return fmt.Errorf("unknown sweep %q", a.sweep)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.sweep, "sweep", "fit", "fit|scrub|scaling|silent|aging")
	flag.IntVar(&a.systems, "systems", 500_000, "Monte-Carlo trials per point")
	flag.Uint64Var(&a.seed, "seed", 42, "random seed")
	cmd.Parse()
	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	schemes := []faultsim.Scheme{
		faultsim.NewSECDED(), faultsim.NewXED(),
		faultsim.NewChipkill(), faultsim.NewXEDChipkill(),
	}
	header := "point,secded,xed,chipkill,xedchipkill,xed_due,xed_sdc"
	row := func(label string, cfg faultsim.Config) {
		rep, err := faultsim.RunCampaign(ctx, cfg, schemes, faultsim.CampaignOptions{
			Trials: a.systems, Seed: a.seed,
		})
		if errors.Is(err, context.Canceled) {
			// Completed rows are already printed; drop the partial one.
			err = errors.New("interrupted")
		}
		if err != nil {
			cmd.Fatal(err)
		}
		xed := rep.ResultFor("XED")
		fmt.Printf("%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n", label,
			rep.ResultFor("ECC-DIMM (SECDED)").Probability(),
			xed.Probability(),
			rep.ResultFor("Chipkill").Probability(),
			rep.ResultFor("XED+Chipkill").Probability(),
			xed.DUEProbability(), xed.SDCProbability())
	}

	fmt.Println(header)
	switch a.sweep {
	case "fit":
		// The scaling-era question: every fault class worsens together.
		for _, mult := range []float64{0.5, 1, 2, 4, 8, 16} {
			cfg := faultsim.DefaultConfig()
			scaled := make(faultsim.FITTable, len(cfg.FITs))
			for i, c := range cfg.FITs {
				c.Rate = faultsim.FIT(float64(c.Rate) * mult)
				scaled[i] = c
			}
			cfg.FITs = scaled
			row(fmt.Sprintf("fit_x%g", mult), cfg)
		}
	case "scrub":
		for _, hours := range []float64{1, 24, 24 * 7, 24 * 30} {
			cfg := faultsim.DefaultConfig()
			cfg.ScrubIntervalHours = hours
			row(fmt.Sprintf("scrub_%gh", hours), cfg)
		}
	case "scaling":
		for _, rate := range []float64{0, 1e-6, 1e-5, 1e-4, 1e-3} {
			cfg := faultsim.DefaultConfig()
			cfg.ScalingRate = rate
			row(fmt.Sprintf("scaling_%g", rate), cfg)
			if rate > 0 {
				m := analysis.TableIIIRow(rate, 72)
				fmt.Fprintf(os.Stderr, "  scaling %g: serial mode 1 per %.3g accesses\n",
					rate, m.SerialModeInterval())
			}
		}
	case "silent":
		// How much does on-die detection strength matter? 0 = perfect
		// detection, 0.05 = a weak code missing 5% of multi-bit damage.
		for _, frac := range []float64{0, 0.002, 0.008, 0.011, 0.02, 0.05} {
			cfg := faultsim.DefaultConfig()
			cfg.SilentWordFraction = frac
			row(fmt.Sprintf("silent_%g", frac), cfg)
		}
	case "aging":
		profiles := []struct {
			name string
			p    faultsim.AgingProfile
		}{
			{"flat", faultsim.FlatAging()},
			{"bathtub", faultsim.BathtubAging()},
			{"infant10x", faultsim.AgingProfile{InfantFactor: 10, BurnInFraction: 0.05, WearoutFactor: 1}},
			{"wearout5x", faultsim.AgingProfile{InfantFactor: 1, WearoutFactor: 5, WearoutOnset: 0.6}},
		}
		for _, pr := range profiles {
			cfg := faultsim.DefaultConfig()
			cfg.Aging = pr.p
			row("aging_"+pr.name, cfg)
		}
	}
}
