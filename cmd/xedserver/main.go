// Command xedserver runs the campaign coordinator, the service side of
// "campaign as a service":
//
//	xedserver -addr :7600 -state-dir /var/lib/xedsim
//
// Campaign jobs arrive over HTTP (POST /v1/jobs), are sharded into leased
// work units of 64 chunks, and xedworker processes drain them. Results are
// bit-identical to a local xedfaultsim run of the same campaign — the
// /v1/jobs/{id}/checkpoint endpoint serves exactly the bytes a local run's
// -checkpoint file would contain. `xedfaultsim -coordinator URL` submits a
// campaign and prints what the local run prints. With -state-dir each
// job's checkpoint survives a restart, and the job resumes from it when its
// client resubmits it. At most 16 unfinished jobs are admitted (beyond
// that, submissions get 429), and running jobs are saved every 5 s.
// SIGINT/SIGTERM drains gracefully (readiness flips, held requests get
// 503, state is persisted).
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
	"xedsim/internal/obs"
)

const cmd cli.Command = "xedserver"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	addr         string
	stateDir     string
	leaseTimeout time.Duration
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.addr == "" {
		return errors.New("-addr must not be empty")
	}
	if a.leaseTimeout <= 0 {
		return fmt.Errorf("-lease-timeout must be positive, got %v", a.leaseTimeout)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.addr, "addr", ":7600", "serve the coordinator API on this address")
	flag.StringVar(&a.stateDir, "state-dir", "", "persist job checkpoints here (a restarted coordinator resumes a job when its client resubmits it)")
	flag.DurationVar(&a.leaseTimeout, "lease-timeout", dist.DefaultLeaseTTL, "work-unit lease TTL; a silent worker's units are re-dispatched after this")
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	if err := runServe(ctx, &a); err != nil {
		cmd.Fatal(err)
	}
}

// runServe hosts the coordinator until the context is cancelled, then
// drains: readiness flips to 503, held requests are released with 503,
// in-flight requests finish, and all job state is persisted so the next
// incarnation resumes each job where this one stopped.
func runServe(ctx context.Context, a *cliArgs) error {
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
		StateDir: a.stateDir,
		LeaseTTL: a.leaseTimeout,
		Metrics:  obs.NewRegistry(),
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
