// Command xedtrace captures, inspects and re-judges Monte-Carlo fault
// traces — the reproducibility tooling around the reliability simulator.
//
//	xedtrace -capture -trials 100000 -out trace.json      # record a campaign
//	xedtrace -judge trace.json                            # evaluate all schemes on it
//	xedtrace -stats trace.json                            # fault population summary
//
// A captured trace pins the exact fault streams, so scheme changes can be
// compared on identical inputs and regressions bisected run-for-run.
package main

import (
	"flag"
	"fmt"
	"os"

	"xedsim/internal/cli"
	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
)

const cmd cli.Command = "xedtrace"

// cliArgs is the flag-validation surface, separated from flag.Parse so the
// exit-2 usage convention is unit-testable (see main_test.go).
type cliArgs struct {
	capture      bool
	judge, stats string
	out          string
	trials       int
	scaling      float64
}

// validateArgs returns the message cmd.UsageErr should print, or nil. Exactly
// one mode must be selected, and capture parameters are range-checked here
// rather than surfacing later as Config or CaptureTrace errors.
func validateArgs(a cliArgs) error {
	modes := 0
	if a.capture {
		modes++
	}
	if a.judge != "" {
		modes++
	}
	if a.stats != "" {
		modes++
	}
	if modes == 0 {
		return fmt.Errorf("pick one of -capture, -judge or -stats")
	}
	if modes > 1 {
		return fmt.Errorf("-capture, -judge and -stats are mutually exclusive")
	}
	if a.capture {
		if a.out == "" {
			return fmt.Errorf("-capture needs a non-empty -out")
		}
		if a.trials <= 0 {
			return fmt.Errorf("-trials must be positive, got %d", a.trials)
		}
		if a.scaling < 0 || a.scaling > 1 {
			return fmt.Errorf("-scaling must be in [0,1], got %v", a.scaling)
		}
	}
	return nil
}

func main() {
	capture := flag.Bool("capture", false, "generate and save a trace")
	judge := flag.String("judge", "", "trace file to evaluate under all schemes")
	stats := flag.String("stats", "", "trace file to summarise")
	out := flag.String("out", "trace.json", "output path for -capture")
	trials := flag.Int("trials", 100_000, "systems to capture")
	seed := flag.Uint64("seed", 42, "random seed for -capture")
	scaling := flag.Float64("scaling", 0, "scaling-fault rate (e.g. 1e-4)")
	flag.Parse()
	if err := validateArgs(cliArgs{
		capture: *capture,
		judge:   *judge,
		stats:   *stats,
		out:     *out,
		trials:  *trials,
		scaling: *scaling,
	}); err != nil {
		cmd.UsageErr("%v", err)
	}

	switch {
	case *capture:
		cfg := faultsim.DefaultConfig()
		cfg.ScalingRate = *scaling
		tr, err := faultsim.CaptureTrace(cfg, *trials, *seed)
		if err != nil {
			cmd.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			cmd.Fatal(err)
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			cmd.Fatal(err)
		}
		total := 0
		for _, t := range tr.Trials {
			total += len(t)
		}
		fmt.Printf("captured %d systems (%d fault records) to %s\n", *trials, total, *out)
	case *judge != "":
		tr := load(*judge)
		rep, err := tr.Judge(faultsim.AllSchemes())
		if err != nil {
			cmd.Fatal(err)
		}
		fmt.Printf("%-22s %12s %12s %12s\n", "scheme", "P(fail)", "DUE", "SDC")
		for i := range rep.Results {
			r := &rep.Results[i]
			fmt.Printf("%-22s %12.3g %12.3g %12.3g\n",
				r.SchemeName, r.Probability(), r.DUEProbability(), r.SDCProbability())
		}
	case *stats != "":
		tr := load(*stats)
		byGran := map[dram.Granularity]int{}
		byKind := map[string]int{}
		total, silent := 0, 0
		for _, trial := range tr.Trials {
			for i := range trial {
				r := &trial[i]
				byGran[r.Gran]++
				if r.Transient {
					byKind["transient"]++
				} else {
					byKind["permanent"]++
				}
				if r.Silent {
					silent++
				}
				total++
			}
		}
		fmt.Printf("%d systems, %d fault records (%.4f per system)\n",
			len(tr.Trials), total, float64(total)/float64(len(tr.Trials)))
		fmt.Printf("persistence: %d transient, %d permanent; %d silent-on-die\n",
			byKind["transient"], byKind["permanent"], silent)
		for g := dram.GranBit; g <= dram.GranChip; g++ {
			if n := byGran[g]; n > 0 {
				fmt.Printf("  %-12s %8d (%.2f%%)\n", g, n, 100*float64(n)/float64(total))
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func load(path string) *faultsim.Trace {
	f, err := os.Open(path)
	if err != nil {
		cmd.Fatal(err)
	}
	defer f.Close()
	tr, err := faultsim.ReadTrace(f)
	if err != nil {
		cmd.Fatal(err)
	}
	return tr
}
