// Package dist turns the chunked Monte-Carlo campaign engine into a
// fault-tolerant distributed service: a Coordinator that accepts campaign
// jobs over HTTP, shards their (seed, chunk) ranges into leased work
// units, and merges worker results into campaign state bit-identical to a
// local faultsim.RunCampaign — and a Worker that leases units, evaluates
// them with faultsim.ChunkRunner and reports back with retry/backoff.
//
// Robustness is the design center, not an add-on. Every mechanism is built
// so that no failure can change the final bytes of a job's result:
//
//   - Determinism does the heavy lifting. A chunk's trial stream is a pure
//     function of (config, seed, chunk index), so recomputing a chunk —
//     after a lease expiry, a worker death, or a torn coordinator restart —
//     reproduces exactly the tallies the lost attempt would have reported.
//   - Leases bound the blast radius of a dead or straggling worker: an
//     expired lease makes its unit grantable again, and a held lease
//     request wakes at the earliest lease deadline to take it.
//   - Merging is idempotent by chunk bitmap: duplicated deliveries (client
//     retries, chaos-injected duplicates, two workers racing on a
//     re-dispatched unit) are acknowledged and dropped, never
//     double-counted.
//   - Each job's checkpoint is the coordinator's only durable state,
//     saved through internal/checkpoint (atomic, fsynced,
//     config-hash-guarded). A restarted coordinator reads none of them at
//     start: it resumes a job from its checkpoint when the job's client
//     resubmits it (Client.Wait does so on a 404), and anything merged
//     after the last save is simply recomputed. A job whose client is gone
//     stays on disk.
//   - The job queue is bounded: beyond the configured depth, submissions
//     get 429 + Retry-After instead of unbounded memory growth.
//
// The wire protocol is plain JSON over stdlib HTTP:
//
//	POST /v1/jobs                  submit a JobSpec        → JobStatus (202) | 429
//	GET  /v1/jobs/{id}?wait=<d>    status, held up to d    → JobStatus
//	GET  /v1/jobs/{id}/result      completed Report        → faultsim.Report JSON
//	GET  /v1/jobs/{id}/checkpoint  canonical snapshot      → checkpoint envelope bytes
//	POST /v1/lease                 ask for a unit          → Lease | 204
//	POST /v1/complete              return a computed unit  → CompleteResponse
//
// plus /metrics, /healthz and /readyz from internal/obs. Nobody polls: a
// status request with a wait (a Go duration) is held until the job's state
// or merged-chunk count changes, and a lease request with a wait until a
// unit can be granted; the coordinator caps a wait at MaxWait, answers a
// wait that ends first with the current status or a 204, and releases
// every held request with 503 when it drains. A request without a wait is
// answered at once.
package dist

import (
	"fmt"

	"xedsim/internal/faultsim"
)

// JobSpec is a campaign submission: exactly the campaign's identity, the
// (config, schemes, trials, seed) that shape the trial streams and the
// meaning of the result. Its identity — and the completed-result cache
// key — is the faultsim.Merger hash of the spec, the same hash that guards
// checkpoint compatibility. POST /v1/jobs refuses a spec that names any
// other field.
type JobSpec struct {
	// Config is the simulated system and fault environment.
	Config faultsim.Config `json:"config"`
	// Schemes names the ECC organisations to evaluate (faultsim.SchemeNames
	// vocabulary), in result order.
	Schemes []string `json:"schemes"`
	// Trials and Seed shape the Monte-Carlo campaign.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
}

// CampaignOptions maps the spec onto the engine's option struct.
func (s *JobSpec) CampaignOptions() faultsim.CampaignOptions {
	return faultsim.CampaignOptions{Trials: s.Trials, Seed: s.Seed}
}

// ResolveSchemes instantiates the named schemes.
func (s *JobSpec) ResolveSchemes() ([]faultsim.Scheme, error) {
	return faultsim.SchemesByName(s.Schemes...)
}

// Validate rejects specs the engine would reject, with dist-flavoured
// errors, before any state is allocated for them.
func (s *JobSpec) Validate() error {
	if s.Trials <= 0 {
		return fmt.Errorf("dist: non-positive trial count %d", s.Trials)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("dist: no schemes named")
	}
	if _, err := s.ResolveSchemes(); err != nil {
		return err
	}
	return s.Config.Validate()
}

// JobState is the job lifecycle: queued → running → done | failed.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// SchemeProgress is one scheme's live tally in a JobStatus, with the 95%
// Wilson interval on its failure probability — honest error bars for a
// campaign still in flight.
type SchemeProgress struct {
	Name     string  `json:"name"`
	Failures uint64  `json:"failures"`
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`
}

// JobStatus is the status response for one job.
type JobStatus struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	DoneChunks  int      `json:"done_chunks"`
	TotalChunks int      `json:"total_chunks"`
	DoneTrials  uint64   `json:"done_trials"`
	Trials      int      `json:"trials"`
	TrialErrors int      `json:"trial_errors"`
	// Cached reports that the submission hit the completed-result cache:
	// an identical campaign (same config hash) had already run to
	// completion, so no new work was scheduled.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure reason when State is JobFailed.
	Error   string           `json:"error,omitempty"`
	Schemes []SchemeProgress `json:"schemes,omitempty"`
}

// LeaseRequest asks the coordinator for a work unit.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// WaitMillis, when positive, holds the request until a unit can be
	// granted or the wait ends (204).
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

// Lease grants a work unit: a contiguous chunk span of one job, reserved
// for TTLMillis. A lease that expires un-completed makes the unit
// grantable again (straggler re-dispatch). The full JobSpec rides along so
// workers are stateless —
// each lease loop keeps the ChunkRunner of the job it last served but can
// always rebuild it.
type Lease struct {
	JobID string `json:"job_id"`
	// Unit indexes the work unit within the job; Lo/Hi is its chunk span.
	Unit int `json:"unit"`
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
	// Token identifies this grant; completions quote it.
	Token uint64 `json:"token"`
	// TTLMillis is the lease duration from grant (a duration, not a
	// wall-clock deadline, so worker and coordinator clocks need not
	// agree).
	TTLMillis int64   `json:"ttl_ms"`
	Spec      JobSpec `json:"spec"`
}

// CompleteRequest returns a finished unit's tallies.
type CompleteRequest struct {
	WorkerID string               `json:"worker_id"`
	JobID    string               `json:"job_id"`
	Unit     int                  `json:"unit"`
	Token    uint64               `json:"token"`
	Result   faultsim.ChunkResult `json:"result"`
}

// CompleteResponse acknowledges a unit completion. Duplicate deliveries
// are acknowledged with Merged=false, Duplicate=true — the worker's unit
// is settled either way.
type CompleteResponse struct {
	Merged    bool `json:"merged"`
	Duplicate bool `json:"duplicate,omitempty"`
	// JobDone hints that the job reached a terminal state.
	JobDone bool `json:"job_done,omitempty"`
}

// errorBody is the JSON error payload non-2xx responses carry.
type errorBody struct {
	Error string `json:"error"`
}
