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
	"errors"
	"flag"
	"fmt"
	"os"

	"xedsim/internal/cli"
	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
)

const cmd cli.Command = "xedtrace"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	capture      bool
	judge, stats string
	out          string
	trials       int
	seed         uint64
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
	var a cliArgs
	flag.BoolVar(&a.capture, "capture", false, "generate and save a trace")
	flag.StringVar(&a.judge, "judge", "", "trace file to evaluate under all schemes")
	flag.StringVar(&a.stats, "stats", "", "trace file to summarise")
	flag.StringVar(&a.out, "out", "trace.json", "output path for -capture")
	flag.IntVar(&a.trials, "trials", 100_000, "systems to capture")
	flag.Uint64Var(&a.seed, "seed", 42, "random seed for -capture")
	flag.Float64Var(&a.scaling, "scaling", 0, "scaling-fault rate (e.g. 1e-4)")
	cmd.Parse()
	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	switch {
	case a.capture:
		cfg := faultsim.DefaultConfig()
		cfg.ScalingRate = a.scaling
		tr, err := faultsim.CaptureTrace(cfg, a.trials, a.seed)
		if err != nil {
			cmd.Fatal(err)
		}
		f, err := os.Create(a.out)
		if err != nil {
			cmd.Fatal(err)
		}
		if err := errors.Join(tr.WriteJSON(f), f.Close()); err != nil {
			cmd.Fatal(err)
		}
		total := 0
		for _, t := range tr.Trials {
			total += len(t)
		}
		fmt.Printf("captured %d systems (%d fault records) to %s\n", a.trials, total, a.out)
	case a.judge != "":
		tr := load(a.judge)
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
	case a.stats != "":
		tr := load(a.stats)
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
