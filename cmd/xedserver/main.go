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
	"strings"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

const cmd cli.Command = "xedserver"

// cliArgs is the flag-validation surface, separated from flag.Parse so the
// exit-2 usage convention is unit-testable (see main_test.go).
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
	chunkSize   int
	scrub       float64
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
		if a.chunkSize < 0 {
			return fmt.Errorf("-chunk-size must be >= 0, got %d", a.chunkSize)
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
	addr := flag.String("addr", ":7600", "serve the coordinator API on this address")
	stateDir := flag.String("state-dir", "", "persist the job ledger and accumulators here (restarts resume in-flight jobs)")
	queueDepth := flag.Int("queue-depth", dist.DefaultQueueDepth, "max jobs admitted but not finished; beyond it submissions get 429")
	leaseTimeout := flag.Duration("lease-timeout", dist.DefaultLeaseTTL, "work-unit lease TTL; a silent worker's units are re-dispatched after this")
	unitChunks := flag.Int("unit-chunks", dist.DefaultUnitChunks, "campaign chunks per leased work unit")
	persistEvery := flag.Duration("persist-every", dist.DefaultPersistInterval, "interval between background state persists")
	submit := flag.Bool("submit", false, "act as a submission client instead of serving")
	coordinator := flag.String("coordinator", "", "coordinator base URL (submit mode)")
	schemeList := flag.String("schemes", "", "comma-separated scheme names (submit mode)")
	systems := flag.Int("systems", 2_000_000, "Monte-Carlo trials (submit mode)")
	seed := flag.Uint64("seed", 42, "random seed (submit mode)")
	chunkSize := flag.Int("chunk-size", 0, "trials per chunk, 0 = engine default (submit mode)")
	scrub := flag.Float64("scrub-hours", 0, "override patrol-scrub interval in hours (submit mode)")
	overlap := flag.Bool("address-overlap", false, "require address-range intersection for compound failures (submit mode)")
	outPath := flag.String("out", "", "write the result's canonical checkpoint to this file (submit mode)")
	flag.Parse()

	if err := validateArgs(cliArgs{
		addr:         *addr,
		stateDir:     *stateDir,
		queueDepth:   *queueDepth,
		leaseTimeout: *leaseTimeout,
		unitChunks:   *unitChunks,
		persistEvery: *persistEvery,
		submit:       *submit,
		coordinator:  *coordinator,
		schemeList:   *schemeList,
		systems:      *systems,
		chunkSize:    *chunkSize,
		scrub:        *scrub,
		outPath:      *outPath,
	}); err != nil {
		cmd.UsageErr("%v", err)
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	var err error
	if *submit {
		err = runSubmit(ctx, submitOptions{
			coordinator: *coordinator,
			schemes:     splitTrim(*schemeList),
			systems:     *systems,
			seed:        *seed,
			chunkSize:   *chunkSize,
			scrub:       *scrub,
			overlap:     *overlap,
			outPath:     *outPath,
		})
	} else {
		err = runServe(ctx, dist.CoordinatorOptions{
			StateDir:        *stateDir,
			QueueDepth:      *queueDepth,
			LeaseTTL:        *leaseTimeout,
			UnitChunks:      *unitChunks,
			PersistInterval: *persistEvery,
		}, *addr)
	}
	if err != nil {
		cmd.Fatal(err)
	}
}

// runServe hosts the coordinator until the context is cancelled, then
// drains: readiness flips to 503, in-flight requests finish, and all job
// state is persisted so the next incarnation resumes where this one
// stopped.
func runServe(ctx context.Context, copts dist.CoordinatorOptions, addr string) error {
	copts.Metrics = obs.NewRegistry()
	coord, err := dist.NewCoordinator(copts)
	if err != nil {
		return err
	}
	coord.Start(ctx)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xedserver: serving on http://%s", ln.Addr())
	if copts.StateDir != "" {
		fmt.Fprintf(os.Stderr, " (state in %s)", copts.StateDir)
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

type submitOptions struct {
	coordinator string
	schemes     []string
	systems     int
	seed        uint64
	chunkSize   int
	scrub       float64
	overlap     bool
	outPath     string
}

// runSubmit submits one campaign, waits it out, prints the per-scheme
// summary, and optionally saves the canonical checkpoint.
func runSubmit(ctx context.Context, o submitOptions) error {
	cfg := faultsim.DefaultConfig()
	if o.scrub > 0 {
		cfg.ScrubIntervalHours = o.scrub
	}
	cfg.RequireAddressOverlap = o.overlap
	spec := &dist.JobSpec{
		Config:    cfg,
		Schemes:   o.schemes,
		Trials:    o.systems,
		Seed:      o.seed,
		ChunkSize: o.chunkSize,
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	cl := dist.NewClient(o.coordinator, nil)
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
	fmt.Printf("%-22s", "scheme \\ year")
	for y := 1; y <= rep.Years; y++ {
		fmt.Printf(" %9d", y)
	}
	fmt.Println()
	for i := range rep.Results {
		r := &rep.Results[i]
		fmt.Printf("%-22s", r.SchemeName)
		for y := 0; y < rep.Years; y++ {
			fmt.Printf(" %9.3g", r.ProbabilityByYear(y))
		}
		fmt.Printf("   (±%.1g; DUE %.2g, SDC %.2g)\n", r.StdErr(), r.DUEProbability(), r.SDCProbability())
	}

	if o.outPath != "" {
		b, err := cl.CheckpointBytes(ctx, st.ID)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outPath, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "xedserver: result checkpoint written to %s\n", o.outPath)
	}
	return nil
}

func splitTrim(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
