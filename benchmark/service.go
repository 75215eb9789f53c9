package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xedsim/internal/dist"
	"xedsim/internal/obs"
)

// service is an in-process campaign service as `xedverify -coordinator`
// meets it: a dist.Coordinator with a fresh state directory behind an HTTP
// server, one dist.Worker with the xedworker default parallelism, and a
// dist.Client. Worker and client share one HTTP transport, as the default
// clients of a single process would.
type service struct {
	reg    *obs.Registry
	srv    *httptest.Server
	client *dist.Client
	dir    string
	tr     *http.Transport
	// leased is closed when the first lease request reaches the server:
	// the end of bring-up.
	leased chan struct{}

	cancel    context.CancelFunc
	done      chan struct{}
	workerErr error
}

// startService brings a service up. wrap, when non-nil, wraps the shared
// transport (the traced run's timing transport).
func startService(ctx context.Context, scratch string, workers int, wrap func(http.RoundTripper) http.RoundTripper) (*service, error) {
	dir, err := os.MkdirTemp(scratch, "service-")
	if err != nil {
		return nil, fmt.Errorf("service state dir: %w", err)
	}
	reg := obs.NewRegistry()
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{StateDir: dir, Metrics: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	coord.Start(sctx)

	s := &service{reg: reg, dir: dir, leased: make(chan struct{}), cancel: cancel, done: make(chan struct{})}
	var once sync.Once
	h := coord.Handler()
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" {
			once.Do(func() { close(s.leased) })
		}
		h.ServeHTTP(w, r)
	}))
	s.tr = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = s.tr
	if wrap != nil {
		rt = wrap(rt)
	}
	hc := &http.Client{Transport: rt}
	s.client = dist.NewClient(s.srv.URL, hc)
	w := dist.NewWorker(dist.WorkerOptions{ID: "bench-worker", Coordinator: s.srv.URL, Parallel: workers, Client: hc})
	go func() {
		defer close(s.done)
		s.workerErr = w.Run(sctx)
	}()
	return s, nil
}

// waitLeased blocks until the worker's first lease request arrives.
func (s *service) waitLeased(ctx context.Context) error {
	select {
	case <-s.leased:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(30 * time.Second):
		return fmt.Errorf("worker made no lease request within 30s")
	}
}

// close stops the worker and the coordinator's housekeeping, waits for the
// worker to exit, shuts the server down and removes the state directory.
func (s *service) close() error {
	s.cancel()
	<-s.done
	s.srv.Close()
	s.tr.CloseIdleConnections()
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	return s.workerErr
}

// counters reads the coordinator counters the verify-service check needs.
func (s *service) counters() serviceCounters {
	c := s.reg.Snapshot().Counters
	return serviceCounters{
		CacheHits:     c["dist.jobs_cache_hits"],
		LeasesExpired: c["dist.leases_expired"],
		JobsFailed:    c["dist.jobs_failed"],
	}
}

// timingTransport records each request of a traced service as an
// "http.<endpoint>" span, and pairs every granted lease with the completion
// that returns it as a "dist.unit" span: the worker's compute time for the
// unit. Client requests take their parent span from the request context;
// worker requests belong to the job in flight. It records only while on is
// set, so traced and untraced jobs can alternate on one service.
type timingTransport struct {
	base http.RoundTripper
	rec  *spanRecorder
	on   atomic.Bool
	job  atomic.Int64 // span ID of the job in flight

	idleLeases atomic.Int64 // 204 answers to lease requests while on

	mu       sync.Mutex
	leasedAt map[uint64]time.Time // lease token → grant time
}

func newTimingTransport(base http.RoundTripper, rec *spanRecorder) *timingTransport {
	return &timingTransport{base: base, rec: rec, leasedAt: make(map[uint64]time.Time)}
}

// endpoint names a protocol request after its path.
func endpoint(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	}
	return strings.TrimPrefix(p, "/v1/")
}

type tokenOnly struct {
	Token uint64 `json:"token"`
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.base.RoundTrip(req)
	}
	kind := endpoint(req)
	start := time.Now()
	if kind == "complete" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var tok tokenOnly
			if json.NewDecoder(body).Decode(&tok) == nil {
				t.mu.Lock()
				if at, ok := t.leasedAt[tok.Token]; ok {
					t.rec.add("dist.unit", t.job.Load(), at, start)
					delete(t.leasedAt, tok.Token)
				}
				t.mu.Unlock()
			}
			body.Close()
		}
	}
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	parent := spanFrom(req.Context())
	if parent == 0 {
		parent = t.job.Load()
	}
	t.rec.add("http."+kind, parent, start, end)
	if err != nil || kind != "lease" {
		return resp, err
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		t.idleLeases.Add(1)
	case http.StatusOK:
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		var tok tokenOnly
		if json.Unmarshal(b, &tok) == nil {
			t.mu.Lock()
			t.leasedAt[tok.Token] = end
			t.mu.Unlock()
		}
	}
	return resp, nil
}
