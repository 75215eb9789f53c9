package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"xedsim/internal/faultsim"
)

// Client is the submitting side of the protocol: it submits campaign
// specs, waits for completion on held status requests, and fetches
// results — resilient to backpressure (429 + Retry-After), coordinator
// outages (connection errors back off and retry), and coordinator
// restarts that lost the job (404 → resubmit; submission is idempotent by
// config hash, so the re-derived job is the same job).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for a coordinator base URL.
func NewClient(base string, hc *http.Client) *Client {
	c := &Client{base: base, hc: hc}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	return c
}

// Base returns the coordinator base URL.
func (c *Client) Base() string { return c.base }

// Submit submits a spec, retrying through backpressure and outages until
// the coordinator admits (or permanently rejects) the job. A 400 is
// permanent — the spec itself is invalid.
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (JobStatus, error) {
	var bo backoff
	for {
		var st JobStatus
		code, retryAfter, err := postJSON(ctx, c.hc, c.Base(), "/v1/jobs", spec, &st)
		switch {
		case err == nil:
			return st, nil
		case ctx.Err() != nil:
			return JobStatus{}, ctx.Err()
		case code == http.StatusBadRequest:
			return JobStatus{}, err
		}
		// 429, 503, connection refused: wait and retry.
		if sleepCtx(ctx, maxDuration(retryAfter, bo.next())) != nil {
			return JobStatus{}, ctx.Err()
		}
	}
}

// Status fetches a job's status once (no retries; Wait owns resilience).
// A positive wait asks the coordinator to hold the request until the job's
// state or merged-chunk count changes, or until the wait ends.
func (c *Client) Status(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st JobStatus
	code, _, err := getJSON(ctx, c.hc, c.Base(), path, &st)
	if code == http.StatusNotFound {
		return JobStatus{}, fmt.Errorf("%w: %.12s", ErrUnknownJob, id)
	}
	if err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Wait submits a spec and waits, on held status requests, until the job
// is done, and returns the job's recorded error if it failed. Errors,
// outages and drains are ridden out with backoff; a coordinator that comes
// back without the job (a restart) gets the spec resubmitted — idempotent
// by config hash, so this never forks the campaign, and the coordinator
// resumes the job from its checkpoint.
func (c *Client) Wait(ctx context.Context, spec *JobSpec) (JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return JobStatus{}, err
	}
	var bo backoff
	for !st.State.Terminal() {
		next, err := c.Status(ctx, st.ID, MaxWait)
		switch {
		case err == nil:
			st = next
			bo.reset()
			continue
		case ctx.Err() != nil:
			return JobStatus{}, ctx.Err()
		case errors.Is(err, ErrUnknownJob):
			// Restarted coordinator without this job: resubmit.
			if st, err = c.Submit(ctx, spec); err != nil {
				return JobStatus{}, err
			}
			continue
		}
		if sleepCtx(ctx, bo.next()) != nil {
			return JobStatus{}, ctx.Err()
		}
	}
	if st.State == JobFailed {
		return JobStatus{}, fmt.Errorf("dist: job %.12s failed: %s", st.ID, st.Error)
	}
	return st, nil
}

// Result fetches a completed job's Report.
func (c *Client) Result(ctx context.Context, id string) (*faultsim.Report, error) {
	var rep faultsim.Report
	if _, _, err := getJSON(ctx, c.hc, c.Base(), "/v1/jobs/"+id+"/result", &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// CheckpointBytes fetches a completed job's canonical snapshot — byte-
// identical to the checkpoint file a local run of the same spec writes.
func (c *Client) CheckpointBytes(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base()+"/v1/jobs/"+id+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: checkpoint: %s", readError(resp.Body, resp.StatusCode))
	}
	return io.ReadAll(resp.Body)
}

// Runner adapts the client to the faultsim.RunCampaign signature: each
// call becomes a job submission that rides the coordinator. Campaign
// schemes are carried by name, so the schemes must come from the standard
// vocabulary (sabotaged test doubles cannot cross the wire). This is what
// xedverify -coordinator plugs into the conformance gate.
func (c *Client) Runner() func(ctx context.Context, cfg faultsim.Config, schemes []faultsim.Scheme, opts faultsim.CampaignOptions) (*faultsim.Report, error) {
	return func(ctx context.Context, cfg faultsim.Config, schemes []faultsim.Scheme, opts faultsim.CampaignOptions) (*faultsim.Report, error) {
		return c.RunCampaign(ctx, NewJobSpec(cfg, schemes, opts))
	}
}

// RunCampaign runs a campaign end to end through the coordinator and
// returns its Report — a drop-in counterpart to faultsim.RunCampaign for
// callers that point at a service instead of local cores. A failed job
// surfaces its recorded error.
func (c *Client) RunCampaign(ctx context.Context, spec *JobSpec) (*faultsim.Report, error) {
	st, err := c.Wait(ctx, spec)
	if err != nil {
		return nil, err
	}
	return c.Result(ctx, st.ID)
}
