// Command xedserver runs the campaign coordinator — the service side of
// "campaign as a service" — and doubles as its submission client:
//
//	xedserver -addr :7600 -state-dir /var/lib/xedsim     # serve
//	xedserver -submit -coordinator http://host:7600 \
//	    -schemes "ECC-DIMM (SECDED),XED" -systems 2000000 -out run.ckpt
//
// Serving: campaign jobs arrive over HTTP (POST /v1/jobs), are sharded
// into leased chunk spans, and xedworker processes drain them. Results are
// bit-identical to a local xedfaultsim run of the same campaign — the
// /v1/jobs/{id}/checkpoint endpoint serves exactly the bytes a local run's
// -checkpoint file would contain. With -state-dir the job ledger and
// accumulators survive restarts: a killed coordinator resumes its
// in-flight jobs. SIGINT/SIGTERM drains gracefully (readiness flips,
// workers are refused and back off, state is persisted).
//
// Submitting: -submit builds a campaign spec from the same flags
// xedfaultsim uses, rides out coordinator restarts and backpressure, and
// prints the per-scheme failure probabilities; -out saves the canonical
// result checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

const cmd cli.Command = "xedserver"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	// serve mode
	addr         string
	stateDir     string
	queueDepth   int
	leaseTimeout time.Duration
	unitChunks   int
	persistEvery time.Duration
	// submit mode
	submit      bool
	coordinator string
	schemeList  string
	systems     int
	seed        uint64
	scrub       float64
	overlap     bool
	outPath     string
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.submit {
		if a.coordinator == "" {
			return errors.New("-submit needs -coordinator URL")
		}
		if a.schemeList == "" {
			return fmt.Errorf("-submit needs -schemes (valid: %v)", faultsim.SchemeNames())
		}
		if a.systems <= 0 {
			return fmt.Errorf("-systems must be positive, got %d", a.systems)
		}
		if a.scrub < 0 {
			return fmt.Errorf("-scrub-hours must be >= 0, got %v", a.scrub)
		}
		return nil
	}
	if a.coordinator != "" {
		return errors.New("-coordinator only applies to -submit")
	}
	if a.outPath != "" {
		return errors.New("-out only applies to -submit")
	}
	if a.addr == "" {
		return errors.New("-addr must not be empty")
	}
	if a.queueDepth <= 0 {
		return fmt.Errorf("-queue-depth must be positive, got %d", a.queueDepth)
	}
	if a.leaseTimeout <= 0 {
		return fmt.Errorf("-lease-timeout must be positive, got %v", a.leaseTimeout)
	}
	if a.unitChunks <= 0 {
		return fmt.Errorf("-unit-chunks must be positive, got %d", a.unitChunks)
	}
	if a.persistEvery <= 0 {
		return fmt.Errorf("-persist-every must be positive, got %v", a.persistEvery)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.addr, "addr", ":7600", "serve the coordinator API on this address")
	flag.StringVar(&a.stateDir, "state-dir", "", "persist the job ledger and accumulators here (restarts resume in-flight jobs)")
	flag.IntVar(&a.queueDepth, "queue-depth", dist.DefaultQueueDepth, "max jobs admitted but not finished; beyond it submissions get 429")
	flag.DurationVar(&a.leaseTimeout, "lease-timeout", dist.DefaultLeaseTTL, "work-unit lease TTL; a silent worker's units are re-dispatched after this")
	flag.IntVar(&a.unitChunks, "unit-chunks", dist.DefaultUnitChunks, "campaign chunks per leased work unit")
	flag.DurationVar(&a.persistEvery, "persist-every", dist.DefaultPersistInterval, "interval between background state persists")
	flag.BoolVar(&a.submit, "submit", false, "act as a submission client instead of serving")
	flag.StringVar(&a.coordinator, "coordinator", "", "coordinator base URL (submit mode)")
	flag.StringVar(&a.schemeList, "schemes", "", "comma-separated scheme names (submit mode)")
	flag.IntVar(&a.systems, "systems", 2_000_000, "Monte-Carlo trials (submit mode)")
	flag.Uint64Var(&a.seed, "seed", 42, "random seed (submit mode)")
	flag.Float64Var(&a.scrub, "scrub-hours", 0, "override patrol-scrub interval in hours (submit mode)")
	flag.BoolVar(&a.overlap, "address-overlap", false, "require address-range intersection for compound failures (submit mode)")
	flag.StringVar(&a.outPath, "out", "", "write the result's canonical checkpoint to this file (submit mode)")
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	run := runServe
	if a.submit {
		run = runSubmit
	}
	if err := run(ctx, &a); err != nil {
		cmd.Fatal(err)
	}
}

// runServe hosts the coordinator until the context is cancelled, then
// drains: readiness flips to 503, in-flight requests finish, and all job
// state is persisted so the next incarnation resumes where this one
// stopped.
func runServe(ctx context.Context, a *cliArgs) error {
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
		StateDir:        a.stateDir,
		QueueDepth:      a.queueDepth,
		LeaseTTL:        a.leaseTimeout,
		UnitChunks:      a.unitChunks,
		PersistInterval: a.persistEvery,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	coord.Start(ctx)

	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xedserver: serving on http://%s", ln.Addr())
	if a.stateDir != "" {
		fmt.Fprintf(os.Stderr, " (state in %s)", a.stateDir)
	}
	fmt.Fprintln(os.Stderr)

	srv := &http.Server{Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "xedserver: draining")
	coord.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	coord.SaveState()
	fmt.Fprintln(os.Stderr, "xedserver: state saved, bye")
	return nil
}

// runSubmit submits one campaign, waits it out, prints the per-scheme
// summary, and optionally saves the canonical checkpoint.
func runSubmit(ctx context.Context, a *cliArgs) error {
	cfg := faultsim.DefaultConfig()
	if a.scrub > 0 {
		cfg.ScrubIntervalHours = a.scrub
	}
	cfg.RequireAddressOverlap = a.overlap
	spec := &dist.JobSpec{Config: cfg, Schemes: cli.SplitList(a.schemeList), Trials: a.systems, Seed: a.seed}
	if err := spec.Validate(); err != nil {
		return err
	}

	cl := dist.NewClient(a.coordinator, nil)
	cl.PollInterval = time.Second
	st, err := cl.Wait(ctx, spec)
	if err != nil {
		return err
	}
	if st.State == dist.JobFailed {
		return fmt.Errorf("job %.12s failed: %s", st.ID, st.Error)
	}
	rep, err := cl.Result(ctx, st.ID)
	if err != nil {
		return err
	}

	fmt.Printf("job %.12s done: %d of %d systems", st.ID, rep.Trials, rep.Requested)
	if st.Cached {
		fmt.Print(" (served from result cache)")
	}
	fmt.Println()
	rep.WriteTable(os.Stdout)

	if a.outPath != "" {
		b, err := cl.CheckpointBytes(ctx, st.ID)
		if err != nil {
			return err
		}
		if err := os.WriteFile(a.outPath, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "xedserver: result checkpoint written to %s\n", a.outPath)
	}
	return nil
}
