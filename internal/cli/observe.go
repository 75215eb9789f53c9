package cli

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"

	"xedsim/internal/obs"
)

// Observe starts the observability flags' lifecycle. It returns the
// registry a run's metrics go to, nil when progress, metricsJSON and
// debugAddr are all unset, and serves debugAddr's endpoints: the live
// metrics, pprof, and views mounted at their paths (see obs.NewMuxViews).
// It exits 1 when debugAddr cannot be listened on. The returned done
// closes the server and writes the snapshot to metricsJSON, exiting 1 if
// that fails; call it after an interrupted run too, so a partial run
// still leaves its accounting behind.
func (c Command) Observe(progress bool, metricsJSON, debugAddr string, views map[string]http.Handler) (*obs.Registry, func()) {
	if !progress && metricsJSON == "" && debugAddr == "" {
		return nil, func() {}
	}
	reg := obs.NewRegistry()
	var srv *http.Server
	if debugAddr != "" {
		srv = c.serveDebug(debugAddr, reg, views)
	}
	return reg, func() {
		if srv != nil {
			srv.Close()
		}
		if metricsJSON != "" {
			if err := writeMetricsJSON(metricsJSON, reg); err != nil {
				c.Fatal(err)
			}
		}
	}
}

func (c Command) serveDebug(addr string, reg *obs.Registry, views map[string]http.Handler) *http.Server {
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
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed once done closes srv
	return srv
}

func writeMetricsJSON(path string, reg *obs.Registry) error {
	b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
