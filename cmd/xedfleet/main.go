// Command xedfleet ages a simulated datacenter DIMM fleet under the
// paper's Table I field fault rates and reports what a fleet monitor would
// actually see: per-memory-controller EDAC counters, failure curves,
// retirement-policy capacity burn and replacement economics.
//
//	xedfleet -dimms 100000                         # 100k DIMMs, 7 years, XED
//	xedfleet -policy on-first-ce                   # retire rows at the first CE
//	xedfleet -policy harp                          # retire permanent faults' rows at first scrub
//	xedfleet -edac fleet.edac                      # write the EDAC sysfs dump
//	xedfleet -dimm 12345                           # one DIMM's regenerated history
//	xedfleet -checkpoint fleet.ckpt -resume        # continue an interrupted run
//	xedfleet -debug-addr localhost:6060            # live /metrics and /edac views
//
// Results are bit-identical for a fixed (config, -seed) at any
// -workers count, and a -resume'd run reproduces an uninterrupted one
// exactly; internal/fleet's statistical battery holds both properties.
// SIGINT/SIGTERM drains workers at chunk boundaries, snapshots progress
// when -checkpoint is set, prints the partial summary and exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
)

const cmd cli.Command = "xedfleet"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	dimms       int
	years       float64
	scrub       float64
	policy      string
	scheme      string
	seed        uint64
	workers     int
	dimmsMC     int
	dimmsHist   int
	edacPath    string
	ckptPath    string
	ckptEvery   time.Duration
	resume      bool
	progress    bool
	metricsJSON string
	debugAddr   string
}

// validateArgs returns the message cmd.UsageErr should print, or nil. Range
// errors are caught at flag-validation time rather than surfacing later as
// Config invariant violations.
func validateArgs(a cliArgs) error {
	if a.dimms <= 0 {
		return fmt.Errorf("-dimms must be positive, got %d", a.dimms)
	}
	if a.years <= 0 {
		return fmt.Errorf("-years must be positive, got %v", a.years)
	}
	if a.scrub <= 0 {
		return fmt.Errorf("-scrub-hours must be positive, got %v", a.scrub)
	}
	if a.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", a.workers)
	}
	if a.dimmsMC <= 0 {
		return fmt.Errorf("-dimms-per-mc must be positive, got %d", a.dimmsMC)
	}
	if a.ckptEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %v", a.ckptEvery)
	}
	if _, err := fleet.ParsePolicy(a.policy); err != nil {
		return err
	}
	if a.scheme != "" {
		if _, err := faultsim.SchemesByName(a.scheme); err != nil {
			return err
		}
	}
	if a.dimmsHist < -1 || a.dimmsHist >= a.dimms { // -1: no history
		return fmt.Errorf("-dimm %d out of range [0, %d)", a.dimmsHist, a.dimms)
	}
	if a.resume && a.ckptPath == "" {
		return errors.New("-resume needs -checkpoint")
	}
	return nil
}

func main() {
	var a cliArgs
	flag.IntVar(&a.dimms, "dimms", 10_000, "fleet size in DIMMs")
	flag.Float64Var(&a.years, "years", 7, "simulated horizon in years")
	flag.Float64Var(&a.scrub, "scrub-hours", 24*7, "patrol-scrub interval (hours)")
	flag.StringVar(&a.policy, "policy", "none", "row retirement policy: none|on-first-ce|threshold:<n>|harp")
	flag.StringVar(&a.scheme, "scheme", "XED", "rank-level protection scheme (faultsim registry name)")
	flag.Uint64Var(&a.seed, "seed", 42, "random seed")
	flag.IntVar(&a.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS); results do not depend on this")
	flag.IntVar(&a.dimmsMC, "dimms-per-mc", 8, "DIMMs per simulated memory controller (EDAC grouping; sizes checkpoints and dumps)")
	flag.IntVar(&a.dimmsHist, "dimm", -1, "print this DIMM's regenerated fault history as JSON and exit")
	flag.StringVar(&a.edacPath, "edac", "", "write the EDAC sysfs-shaped counter dump to this file (\"-\" for stdout)")
	flag.StringVar(&a.ckptPath, "checkpoint", "", "snapshot fleet progress to this file")
	flag.DurationVar(&a.ckptEvery, "checkpoint-every", fleet.DefaultCheckpointInterval, "interval between periodic snapshots")
	flag.BoolVar(&a.resume, "resume", false, "resume from -checkpoint if it exists")
	flag.BoolVar(&a.progress, "progress", false, "repaint a one-line live status on stderr")
	flag.StringVar(&a.metricsJSON, "metrics-json", "", "write the final metrics snapshot to this file as JSON")
	flag.StringVar(&a.debugAddr, "debug-addr", "", "serve live /metrics, /edac and pprof over HTTP on this address")
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	cfg := fleet.DefaultConfig()
	cfg.DIMMs = a.dimms
	cfg.HorizonHours = a.years * faultsim.HoursPerYear
	cfg.ScrubIntervalHours = a.scrub
	cfg.Scheme = a.scheme
	cfg.DIMMsPerMC = a.dimmsMC
	cfg.Policy, _ = fleet.ParsePolicy(a.policy)
	if err := cfg.Validate(); err != nil {
		cmd.UsageErr("%v", err)
	}

	opts := fleet.Options{
		Seed:               a.seed,
		Workers:            a.workers,
		CheckpointPath:     a.ckptPath,
		CheckpointInterval: a.ckptEvery,
		Resume:             a.resume,
	}

	if a.dimmsHist >= 0 {
		h, err := fleet.History(cfg, opts, a.dimmsHist)
		if err != nil {
			cmd.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(h); err != nil {
			cmd.Fatal(err)
		}
		return
	}

	view := fleet.NewView()
	opts.View = view
	reg, done := cmd.Observe(a.progress, a.metricsJSON, a.debugAddr, map[string]http.Handler{"/edac": view.Handler()})
	opts.Metrics = reg
	var progress *cli.Progress
	if a.progress {
		start := time.Now()
		progress = cli.NewProgress(os.Stderr, func(chunks, total int) string {
			return fmt.Sprintf("xedfleet: %d/%d chunks (%.0f%%), %.0fs elapsed",
				chunks, total, 100*float64(chunks)/float64(total), time.Since(start).Seconds())
		})
		opts.OnChunk = progress.Update
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	sum, runErr := fleet.Run(ctx, cfg, opts)
	progress.Finish()
	interrupted := errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		cmd.Fatal(runErr)
	}
	printSummary(sum)
	if a.edacPath != "" {
		if err := writeEDAC(a.edacPath, &cfg, sum); err != nil {
			cmd.Fatal(err)
		}
	}
	done()
	if interrupted {
		cmd.Fatal(cli.Interrupted("partial summary", a.ckptPath))
	}
}

func printSummary(s *fleet.Summary) {
	t := &s.Tally
	fmt.Printf("fleet: %d DIMMs (%s), %d years, scrub %.0fh, policy %s, seed %d\n",
		t.DIMMs, s.Config.Scheme, s.Years, s.Config.ScrubIntervalHours, s.Config.Policy, s.Seed)
	if !s.Complete {
		fmt.Printf("  PARTIAL: %d of %d DIMMs aged\n", t.DIMMs, s.Config.DIMMs)
	}
	fmt.Printf("  machine-years simulated   %.0f\n", s.MachineYears())
	fmt.Printf("  fault arrivals            %d\n", t.Faults)
	fmt.Printf("  failed DIMMs              %d (%.3g, %.2f nines)\n", t.Failed, s.FailedFraction(), s.Nines())
	fmt.Printf("  detected (DUE) / silent   %d / %d\n", t.DUEs, t.SDCs)
	fmt.Printf("  ce_count / ce_noinfo      %d / %d\n", t.CEs, t.CENoInfo)
	fmt.Printf("  ue_count / ue_noinfo      %d / %d\n", t.UEs, t.UENoInfo)
	fmt.Printf("  rows retired              %d\n", t.RetiredRows)
	fmt.Printf("  replacement cost          $%.0f\n", s.SwapCostUSD())
	fmt.Printf("  %-24s", "cumulative failures")
	for _, n := range s.CumulativeFailedByYear() {
		fmt.Printf(" %7d", n)
	}
	fmt.Println()
	fmt.Printf("  %-24s", "arrival histogram")
	for _, n := range t.Arrivals {
		fmt.Printf(" %7d", n)
	}
	fmt.Println()
}

func writeEDAC(path string, cfg *fleet.Config, sum *fleet.Summary) error {
	dump := fleet.NewEDACSnapshot(cfg, sum.MCs).Dump()
	if path == "-" {
		_, err := os.Stdout.Write(dump)
		return err
	}
	return os.WriteFile(path, dump, 0o644)
}
