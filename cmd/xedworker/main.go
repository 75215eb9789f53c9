// Command xedworker is the compute side of "campaign as a service": it
// leases work units (contiguous chunk spans of a campaign) from an
// xedserver coordinator, evaluates them with the chunked Monte-Carlo
// engine, and reports the tallies back.
//
//	xedworker -coordinator http://host:7600 -parallel 8
//
// Workers are stateless and crash-safe by construction: every chunk is a
// pure function of the campaign spec, so killing a worker at any instant —
// including mid-unit — loses nothing but time. Its leases expire and the
// coordinator re-dispatches the units. Heartbeats keep long units alive;
// retries with jittered exponential backoff ride out coordinator restarts
// and backpressure. -max-units stops the worker after N settled units (the
// chaos harness's kill lever; also handy for scale-to-zero batch runs).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/dist"
	"xedsim/internal/obs"
)

const cmd cli.Command = "xedworker"

// cliArgs is the flag-validation surface, separated from flag.Parse so the
// exit-2 usage convention is unit-testable (see main_test.go).
type cliArgs struct {
	coordinator string
	id          string
	parallel    int
	heartbeat   time.Duration
	maxUnits    int
	debugAddr   string
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.coordinator == "" {
		return errors.New("-coordinator URL is required")
	}
	if a.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", a.parallel)
	}
	if a.heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be positive, got %v", a.heartbeat)
	}
	if a.maxUnits < 0 {
		return fmt.Errorf("-max-units must be >= 0, got %d", a.maxUnits)
	}
	return nil
}

func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return host + "-" + strconv.Itoa(os.Getpid())
}

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL, e.g. http://host:7600")
	id := flag.String("id", "", "worker identity in lease traffic (default hostname-pid)")
	parallel := flag.Int("parallel", 0, "concurrent work units (0 = GOMAXPROCS)")
	heartbeat := flag.Duration("heartbeat", dist.DefaultHeartbeatInterval, "lease-extension interval; keep well below the coordinator's -lease-timeout")
	maxUnits := flag.Int("max-units", 0, "exit after settling this many units (0 = run until signalled)")
	debugAddr := flag.String("debug-addr", "", "serve live metrics and pprof over HTTP on this address")
	flag.Parse()

	args := cliArgs{
		coordinator: *coordinator,
		id:          *id,
		parallel:    *parallel,
		heartbeat:   *heartbeat,
		maxUnits:    *maxUnits,
		debugAddr:   *debugAddr,
	}
	if err := validateArgs(args); err != nil {
		cmd.UsageErr("%v", err)
	}
	if args.id == "" {
		args.id = defaultWorkerID()
	}
	if args.parallel == 0 {
		args.parallel = runtime.GOMAXPROCS(0)
	}

	reg := obs.NewRegistry()
	if args.debugAddr != "" {
		srv := cmd.ServeDebug(args.debugAddr, reg, nil)
		defer srv.Close()
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	w := dist.NewWorker(dist.WorkerOptions{
		ID:                args.id,
		Coordinator:       args.coordinator,
		Parallel:          args.parallel,
		HeartbeatInterval: args.heartbeat,
		MaxUnits:          args.maxUnits,
		Metrics:           reg,
	})
	fmt.Fprintf(os.Stderr, "xedworker: %s leasing from %s with %d slots\n", args.id, args.coordinator, args.parallel)
	if err := w.Run(ctx); err != nil {
		cmd.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xedworker: settled %d units, bye\n", w.UnitsDone())
}
