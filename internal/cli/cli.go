// Package cli is the plumbing xedsim's commands share: the usage-error
// and runtime-error exits, the interrupt context, the -debug-addr listener
// and the -metrics-json writer. A command exits 2 on a usage error and 1
// on a runtime error, and starts every line it prints to standard error
// with its name.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"xedsim/internal/obs"
)

// Command names a command in its diagnostics.
type Command string

// UsageErr prints the message and the flag usage to standard error and
// exits 2.
func (c Command) UsageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, string(c)+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Fatal prints err to standard error and exits 1.
func (c Command) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c, err)
	os.Exit(1)
}

// InterruptContext returns a context cancelled by the first SIGINT or
// SIGTERM, the signal set every long-running command drains on, and the
// function that stops relaying them.
func InterruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ServeDebug serves the -debug-addr endpoints on addr: reg's live metrics,
// pprof, and views mounted at their paths (see obs.NewMuxViews). It exits 1
// when addr cannot be listened on; the caller closes the returned server
// on exit.
func (c Command) ServeDebug(addr string, reg *obs.Registry, views map[string]http.Handler) *http.Server {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.Fatal(fmt.Errorf("-debug-addr: %w", err))
	}
	served := []string{"metrics"}
	for path := range views {
		served = append(served, path)
	}
	sort.Strings(served[1:])
	fmt.Fprintf(os.Stderr, "%s: serving %s and pprof on http://%s\n", c, strings.Join(served, ", "), ln.Addr())
	srv := &http.Server{Handler: obs.NewMuxViews(reg, views)}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed once the caller closes srv
	return srv
}

// WriteMetricsJSON writes reg's snapshot to path as indented JSON, for the
// -metrics-json flag.
func WriteMetricsJSON(path string, reg *obs.Registry) error {
	b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
