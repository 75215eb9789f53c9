// Command xedfaultsim regenerates the XED paper's reliability figures with
// the FaultSim-style Monte-Carlo simulator:
//
//	xedfaultsim -experiment fig1   # NonECC vs ECC-DIMM vs Chipkill (On-Die ECC present)
//	xedfaultsim -experiment fig7   # ECC-DIMM vs XED vs Chipkill
//	xedfaultsim -experiment fig8   # same, with scaling faults at 1e-4
//	xedfaultsim -experiment fig9   # Single- vs Double-Chipkill vs XED+Chipkill
//	xedfaultsim -experiment fig10  # same, with scaling faults
//	xedfaultsim -experiment custom -schemes "XED,Chipkill"
//	xedfaultsim -experiment fig7 -ondie-code random:7   # measure the silent fraction
//	xedfaultsim -experiment all
//
// Each run prints the probability-of-system-failure curve per year (the
// figures' series) and the headline reliability ratios the paper quotes.
// The paper simulates 1e9 systems; -systems trades precision for time.
//
// Long campaigns are resilient: SIGINT/SIGTERM drains the workers, prints
// the partial results with their trial counts and confidence intervals,
// and exits nonzero. With -checkpoint the campaign also snapshots its
// accumulators atomically every -checkpoint-every (and on interrupt), and
// -resume continues from the snapshot — the resumed run is bit-identical
// to an uninterrupted one with the same seed. A snapshot records a hash of
// the full campaign configuration and refuses to resume a different one.
//
// With -coordinator each campaign runs as a job on an xedserver
// coordinator, drained by xedworker processes, instead of on local cores:
//
//	xedfaultsim -coordinator http://host:7600 -experiment custom \
//	    -schemes "ECC-DIMM (SECDED),XED" -systems 1000000000 -checkpoint fig7.ckpt
//
// The service's results are bit-identical to local ones, so the command
// prints what the local run prints, and -checkpoint writes the finished
// job's checkpoint, the bytes the local run's file holds. The coordinator
// schedules, saves and resumes the job, so -workers, -resume,
// -checkpoint-every, -progress and -metrics-json are usage errors with it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

const cmd cli.Command = "xedfaultsim"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	experiment  string
	systems     int
	seed        uint64
	scrub       float64
	overlap     bool
	workers     int
	schemeList  string
	ckptPath    string
	ckptEvery   time.Duration
	resume      bool
	ondieCode   string
	progress    bool
	metricsJSON string
	debugAddr   string
	coordinator string
}

// validateArgs returns the message cmd.UsageErr should print, or nil. Range
// errors are caught here, at flag-validation time, rather than surfacing
// later as Config invariant violations (negative scrub intervals) or as
// silently disabled periodic snapshots (non-positive -checkpoint-every).
func validateArgs(a cliArgs) error {
	if a.systems <= 0 {
		return fmt.Errorf("-systems must be positive, got %d", a.systems)
	}
	if a.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", a.workers)
	}
	if a.scrub < 0 {
		return fmt.Errorf("-scrub-hours must be >= 0, got %v", a.scrub)
	}
	if a.ckptEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %v", a.ckptEvery)
	}
	switch a.experiment {
	case "all", "fig1", "fig7", "fig8", "fig9", "fig10", "custom":
	default:
		return fmt.Errorf("unknown experiment %q", a.experiment)
	}
	if a.experiment == "custom" && a.schemeList == "" {
		return fmt.Errorf("-experiment custom needs -schemes (valid: %v)", faultsim.SchemeNames())
	}
	if a.experiment != "custom" && a.schemeList != "" {
		return errors.New("-schemes only applies to -experiment custom")
	}
	if a.ckptPath != "" && a.experiment == "all" {
		return errors.New("-checkpoint covers one campaign; pick a single -experiment")
	}
	if a.resume && a.ckptPath == "" {
		return errors.New("-resume needs -checkpoint")
	}
	if _, err := faultsim.ParseOnDieCode(a.ondieCode); err != nil {
		return err
	}
	if a.coordinator != "" {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{a.workers != 0, "-workers"},
			{a.resume, "-resume"},
			{a.ckptEvery != faultsim.DefaultCheckpointInterval, "-checkpoint-every"},
			{a.progress, "-progress"},
			{a.metricsJSON != "", "-metrics-json"},
		} {
			if f.set {
				return fmt.Errorf("%s does not apply with -coordinator: the service runs and saves the campaign", f.name)
			}
		}
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.experiment, "experiment", "all", "fig1|fig7|fig8|fig9|fig10|custom|all")
	flag.IntVar(&a.systems, "systems", 2_000_000, "Monte-Carlo trials (systems simulated)")
	flag.Uint64Var(&a.seed, "seed", 42, "random seed")
	flag.Float64Var(&a.scrub, "scrub-hours", 0, "override patrol-scrub interval (hours)")
	flag.BoolVar(&a.overlap, "address-overlap", false, "require address-range intersection for compound failures (precise FaultSim criterion)")
	flag.IntVar(&a.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.StringVar(&a.schemeList, "schemes", "", "comma-separated scheme names for -experiment custom")
	flag.StringVar(&a.ckptPath, "checkpoint", "", "snapshot campaign progress to this file (single experiment only)")
	flag.DurationVar(&a.ckptEvery, "checkpoint-every", faultsim.DefaultCheckpointInterval, "interval between periodic snapshots")
	flag.BoolVar(&a.resume, "resume", false, "resume from -checkpoint if it exists")
	flag.StringVar(&a.ondieCode, "ondie-code", "", "measure the silent-word fraction from this on-die code (crc8|hamming|hsiao|random:<seed>) instead of assuming the paper's 0.008")
	flag.BoolVar(&a.progress, "progress", false, "repaint a one-line live status (trials/s, per-scheme tallies) on stderr")
	flag.StringVar(&a.metricsJSON, "metrics-json", "", "write the final metrics snapshot to this file as JSON")
	flag.StringVar(&a.debugAddr, "debug-addr", "", "serve live metrics and pprof over HTTP on this address (e.g. localhost:6060)")
	flag.StringVar(&a.coordinator, "coordinator", "", "run each campaign as a job on this xedserver coordinator URL instead of local cores")
	prof := cli.RegisterProfile(flag.CommandLine)
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}
	var custom []faultsim.Scheme
	if a.experiment == "custom" {
		var err error
		if custom, err = faultsim.SchemesByName(cli.SplitList(a.schemeList)...); err != nil {
			cmd.UsageErr("%v", err)
		}
	}

	// One registry spans all experiments of the run, so -experiment all
	// accumulates into the same counters the debug endpoint serves.
	reg, done := cmd.Observe(a.progress, a.metricsJSON, a.debugAddr, nil)

	ctx, stop := cli.InterruptContext()
	defer stop()

	if err := prof.Start(); err != nil {
		cmd.Fatal(err)
	}
	var runErr error
	if a.experiment == "all" {
		for _, name := range []string{"fig1", "fig7", "fig8", "fig9", "fig10"} {
			if runErr = runExperiment(ctx, name, &a, nil, reg); runErr != nil {
				break
			}
			fmt.Println()
		}
	} else {
		runErr = runExperiment(ctx, a.experiment, &a, custom, reg)
	}
	if err := prof.Stop(); err != nil {
		cmd.Fatal(err)
	}
	done() // an interrupted run leaves its metrics behind too
	if runErr != nil {
		cmd.Fatal(runErr)
	}
}

// runExperiment runs one figure's campaign, or the custom schemes, and
// prints its table; reg is nil unless an observability flag is set.
func runExperiment(ctx context.Context, name string, a *cliArgs, custom []faultsim.Scheme, reg *obs.Registry) error {
	cfg := faultsim.DefaultConfig()
	if a.scrub > 0 {
		cfg.ScrubIntervalHours = a.scrub
	}
	cfg.RequireAddressOverlap = a.overlap
	if a.ondieCode != "" {
		// Replace the paper's assumed 0.8% escape rate with one measured
		// against the selected codec. The measurement is seeded, so
		// checkpointed campaigns hash and resume consistently.
		code, err := faultsim.ParseOnDieCode(a.ondieCode)
		if err != nil {
			return err
		}
		cfg.SilentWordFraction = faultsim.SilentWordFractionFor(code, 200_000, a.seed)
		fmt.Printf("on-die code %s: measured silent word fraction %.2g (config default %.2g)\n",
			code.Name(), cfg.SilentWordFraction, faultsim.DefaultConfig().SilentWordFraction)
	}

	var schemes []faultsim.Scheme
	var title string
	var ratios [][2]string
	switch name {
	case "fig1":
		title = "Figure 1: reliability solutions in presence of On-Die ECC"
		schemes = []faultsim.Scheme{faultsim.NewNonECC(), faultsim.NewSECDED(), faultsim.NewChipkill()}
		ratios = [][2]string{{"Chipkill", "ECC-DIMM (SECDED)"}}
	case "fig7":
		title = "Figure 7: ECC-DIMM vs XED vs Chipkill"
		schemes = []faultsim.Scheme{faultsim.NewSECDED(), faultsim.NewXED(), faultsim.NewChipkill()}
		ratios = [][2]string{
			{"XED", "ECC-DIMM (SECDED)"},
			{"Chipkill", "ECC-DIMM (SECDED)"},
			{"XED", "Chipkill"},
		}
	case "fig8":
		title = "Figure 8: runtime faults in the presence of scaling faults (1e-4)"
		cfg.ScalingRate = 1e-4
		schemes = []faultsim.Scheme{faultsim.NewSECDED(), faultsim.NewXED(), faultsim.NewChipkill()}
		ratios = [][2]string{
			{"XED", "ECC-DIMM (SECDED)"},
			{"Chipkill", "ECC-DIMM (SECDED)"},
		}
	case "fig9":
		title = "Figure 9: Single-Chipkill vs Double-Chipkill vs XED+Chipkill"
		schemes = []faultsim.Scheme{faultsim.NewChipkill(), faultsim.NewDoubleChipkill(), faultsim.NewXEDChipkill()}
		ratios = [][2]string{
			{"Double-Chipkill", "Chipkill"},
			{"XED+Chipkill", "Double-Chipkill"},
		}
	case "fig10":
		title = "Figure 10: Chipkill family with scaling faults (1e-4)"
		cfg.ScalingRate = 1e-4
		schemes = []faultsim.Scheme{faultsim.NewChipkill(), faultsim.NewDoubleChipkill(), faultsim.NewXEDChipkill()}
		ratios = [][2]string{
			{"Double-Chipkill", "Chipkill"},
			{"XED+Chipkill", "Double-Chipkill"},
		}
	case "custom":
		title = "Custom campaign"
		schemes = custom
	}

	copts := faultsim.CampaignOptions{
		Trials:             a.systems,
		Seed:               a.seed,
		Workers:            a.workers,
		CheckpointPath:     a.ckptPath,
		CheckpointInterval: a.ckptEvery,
		Resume:             a.resume,
		Metrics:            reg,
	}
	var progress *cli.Progress
	if a.progress {
		progress = cli.NewProgress(os.Stderr, progressLine(reg, name, schemes))
		copts.OnChunk = progress.Update
	}

	var rep *faultsim.Report
	var err error
	if a.coordinator != "" {
		rep, err = runRemote(ctx, a, dist.NewJobSpec(cfg, schemes, copts))
	} else {
		rep, err = faultsim.RunCampaign(ctx, cfg, schemes, copts)
	}
	progress.Finish() // terminate the repaint line before the results table
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	fmt.Println(title)
	fmt.Printf("  (%d of %d systems, %d chips each, %.0f-year lifetime, scrub %.0fh)\n",
		rep.Trials, rep.Requested, cfg.TotalChips(), cfg.LifetimeHours/faultsim.HoursPerYear, cfg.ScrubIntervalHours)
	rep.WriteTable(os.Stdout)
	for _, pair := range ratios {
		ratio, lo, hi := rep.ImprovementCI(pair[0], pair[1])
		fmt.Printf("  %s is %.1fx more reliable than %s (95%% CI %.1f-%.1fx)\n",
			pair[0], ratio, pair[1], lo, hi)
	}
	for i := range rep.TrialErrors {
		te := &rep.TrialErrors[i]
		fmt.Fprintf(os.Stderr, "  voided trial %d (chunk %d, rng %v): %s\n",
			te.Trial, te.Chunk, te.RNGState, te.PanicValue)
	}
	if interrupted {
		return cli.Interrupted("partial results", a.ckptPath)
	}
	return nil
}

// runRemote runs spec as a job on the -coordinator service and returns its
// Report. With -checkpoint it writes the finished job's checkpoint, the
// bytes a local run leaves in that file.
func runRemote(ctx context.Context, a *cliArgs, spec *dist.JobSpec) (*faultsim.Report, error) {
	cl := dist.NewClient(a.coordinator, nil)
	st, err := cl.Wait(ctx, spec)
	if err != nil {
		if ctx.Err() != nil { // no partial Report to print: the progress is the coordinator's
			return nil, errors.New("interrupted; the job keeps running on the coordinator, and the same command collects its result")
		}
		return nil, err
	}
	rep, err := cl.Result(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if a.ckptPath != "" {
		b, err := cl.CheckpointBytes(ctx, st.ID)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(a.ckptPath, b, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
