// Command xedworker is the compute side of "campaign as a service": it
// leases work units (contiguous chunk spans of a campaign) from an
// xedserver coordinator, evaluates them with the chunked Monte-Carlo
// engine, and reports the tallies back.
//
//	xedworker -coordinator http://host:7600 -parallel 8
//
// -parallel is the number of cores to compute on: when it is set, the
// worker runs on that many (GOMAXPROCS), and it runs that many lease loops,
// each fanning its unit out over that many goroutines. The Go scheduler
// shares the cores among the goroutines of the units in flight, so a lone
// unit runs on every core and a core a finished unit frees goes to the
// units still running.
//
// Workers are stateless and crash-safe by construction: every chunk is a
// pure function of the campaign spec, so killing a worker at any instant —
// including mid-unit — loses nothing but time. Its leases expire and the
// coordinator re-dispatches the units. An idle worker's lease request is
// held at the coordinator until a unit is free; retries with jittered
// exponential backoff (50 ms doubling to 5 s) ride out errors,
// coordinator restarts and backpressure. The worker runs until SIGINT or
// SIGTERM.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"xedsim/internal/cli"
	"xedsim/internal/dist"
)

const cmd cli.Command = "xedworker"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	coordinator string
	id          string
	parallel    int
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
	var a cliArgs
	flag.StringVar(&a.coordinator, "coordinator", "", "coordinator base URL, e.g. http://host:7600")
	flag.StringVar(&a.id, "id", "", "worker identity in lease traffic (default hostname-pid)")
	flag.IntVar(&a.parallel, "parallel", 0, "cores to compute on: GOMAXPROCS, lease loops and goroutines per unit (0 = GOMAXPROCS)")
	flag.StringVar(&a.debugAddr, "debug-addr", "", "serve live metrics and pprof over HTTP on this address")
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}
	if a.id == "" {
		a.id = defaultWorkerID()
	}
	if a.parallel > 0 {
		runtime.GOMAXPROCS(a.parallel)
	}
	a.parallel = runtime.GOMAXPROCS(0)

	reg, done := cmd.Observe(false, "", a.debugAddr, nil)
	defer done()

	ctx, stop := cli.InterruptContext()
	defer stop()

	w := dist.NewWorker(dist.WorkerOptions{
		ID:          a.id,
		Coordinator: a.coordinator,
		Parallel:    a.parallel,
		Metrics:     reg,
	})
	fmt.Fprintf(os.Stderr, "xedworker: %s leasing from %s on %d cores\n", a.id, a.coordinator, a.parallel)
	if err := w.Run(ctx); err != nil {
		cmd.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "xedworker: settled %d units, bye\n", w.UnitsDone())
}
