package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"xedsim/internal/checkpoint"
	"xedsim/internal/chunkrun"
	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// Fleet engine constants.
const (
	// DefaultChunkSize is the DIMMs per chunk: the granularity of
	// scheduling, checkpointing and cancellation. It shapes the
	// substreams, so every fleet uses it. Smaller than the campaign
	// engine's 4096: a DIMM with faults costs more than a campaign trial
	// (telemetry, retirement), and small fleets (10k DIMMs) still want
	// enough chunks to spread over workers.
	DefaultChunkSize = 1024
	// DefaultCheckpointInterval spaces periodic snapshots.
	DefaultCheckpointInterval = 30 * time.Second
	// ArrivalBins sizes the per-DIMM fault-arrival histogram: bins 0..7
	// count DIMMs with exactly that many fault events over the horizon,
	// the last bin collects 8+.
	ArrivalBins = 9
)

// fleetCheckpointKind frames fleet snapshots on disk. Version 1 snapshots
// hold tallies of the scalar skip-sampled streams under the same config
// hash, so they are refused.
const (
	fleetCheckpointKind    = "fleet-campaign"
	fleetCheckpointVersion = 2
)

// Options parameterises Run.
type Options struct {
	// Seed roots all fleet randomness; DIMM d's fault history is a pure
	// function of (Config, Seed, d).
	Seed uint64
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS. Results are
	// bit-identical for a fixed (Config, Seed) regardless of Workers.
	Workers int
	// CheckpointPath enables periodic atomic snapshots when non-empty.
	CheckpointPath string
	// CheckpointInterval spaces periodic snapshots; 0 selects
	// DefaultCheckpointInterval.
	CheckpointInterval time.Duration
	// Resume loads CheckpointPath before starting and ages only the
	// chunks it does not cover. A missing file starts fresh; a snapshot
	// from any different configuration is refused.
	Resume bool
	// OnChunk, when non-nil, observes progress after each chunk merge
	// (and once at startup when resuming). Called from worker
	// goroutines, serialised.
	OnChunk func(doneChunks, totalChunks int)
	// Metrics, when non-nil, publishes live fleet counters under
	// "fleet.*" names.
	Metrics *obs.Registry
	// View, when non-nil, is bound to the running engine so the /edac
	// HTTP view serves live mid-run counter snapshots.
	View *View
}

// MCCounters is one simulated memory controller's EDAC counter block, in
// the exact shape of /sys/devices/system/edac/mc/mc<N>: correctable errors
// with and without source information, and detected uncorrectable errors
// likewise. Counters compose by field-wise addition.
type MCCounters struct {
	CE       uint64 `json:"ce_count"`
	CENoInfo uint64 `json:"ce_noinfo_count"`
	UE       uint64 `json:"ue_count"`
	UENoInfo uint64 `json:"ue_noinfo_count"`
}

func (m *MCCounters) add(o *MCCounters) {
	m.CE += o.CE
	m.CENoInfo += o.CENoInfo
	m.UE += o.UE
	m.UENoInfo += o.UENoInfo
}

// Tally is the fleet's integer accumulator: the unit of chunk merging and
// of checkpoint payloads. Tallies compose by field-wise addition, which is
// what makes any partition of the fleet's chunks across workers merge back
// to bit-identical Summaries.
type Tally struct {
	// DIMMs is the number of DIMMs aged.
	DIMMs uint64 `json:"dimms"`
	// Faults counts fault-arrival events (a multi-rank event counts
	// once, not once per expanded rank record).
	Faults uint64 `json:"faults"`
	// Failed / DUEs / SDCs classify the DIMMs whose protection scheme
	// failed within the horizon.
	Failed uint64 `json:"failed"`
	DUEs   uint64 `json:"dues"`
	SDCs   uint64 `json:"sdcs"`
	// CEs / CENoInfo count scrub-pass correctable-error reports;
	// UEs / UENoInfo count detected uncorrectable errors. NoInfo books
	// whole-chip damage, which carries no useful source address. SDC
	// failures appear in no UE counter — silent corruption is, by
	// definition, invisible to the monitor.
	CEs      uint64 `json:"ces"`
	CENoInfo uint64 `json:"ce_noinfo"`
	UEs      uint64 `json:"ues"`
	UENoInfo uint64 `json:"ue_noinfo"`
	// RetiredRows counts retirement-policy actions (capacity burned).
	RetiredRows uint64 `json:"retired_rows"`
	// Arrivals histograms per-DIMM fault-event counts (see ArrivalBins).
	Arrivals [ArrivalBins]uint64 `json:"arrivals"`
	// FailedByYear buckets first failures by year of onset
	// (non-cumulative; Summary exposes the cumulative view).
	FailedByYear []uint64 `json:"failed_by_year"`
}

func (t *Tally) add(o *Tally) {
	t.DIMMs += o.DIMMs
	t.Faults += o.Faults
	t.Failed += o.Failed
	t.DUEs += o.DUEs
	t.SDCs += o.SDCs
	t.CEs += o.CEs
	t.CENoInfo += o.CENoInfo
	t.UEs += o.UEs
	t.UENoInfo += o.UENoInfo
	t.RetiredRows += o.RetiredRows
	for i := range t.Arrivals {
		t.Arrivals[i] += o.Arrivals[i]
	}
	for y := range t.FailedByYear {
		t.FailedByYear[y] += o.FailedByYear[y]
	}
}

// Summary is the outcome of one fleet run: pure integer telemetry plus the
// configuration that produced it. Two runs with the same (Config, Seed)
// produce identical Summaries whatever the worker count and
// whether or not they were interrupted and resumed.
type Summary struct {
	Config    Config `json:"config"`
	Seed      uint64 `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
	Years     int    `json:"years"`
	// Complete is false when the run was cancelled mid-fleet; Tally then
	// covers only the merged chunks.
	Complete bool         `json:"complete"`
	Tally    Tally        `json:"tally"`
	MCs      []MCCounters `json:"mcs"`
}

// FailedFraction is the per-DIMM failure probability over the horizon.
func (s *Summary) FailedFraction() float64 {
	if s.Tally.DIMMs == 0 {
		return 0
	}
	return float64(s.Tally.Failed) / float64(s.Tally.DIMMs)
}

// Nines is the fleet's DIMM-survival nines over the horizon:
// -log10(failed fraction), +Inf when nothing failed.
func (s *Summary) Nines() float64 {
	f := s.FailedFraction()
	if f <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(f)
}

// SwapCostUSD prices the horizon's DIMM replacements.
func (s *Summary) SwapCostUSD() float64 {
	return float64(s.Tally.Failed) * s.Config.CostPerSwapUSD
}

// MachineYears is the total simulated DIMM-time.
func (s *Summary) MachineYears() float64 {
	return float64(s.Tally.DIMMs) * s.Config.HorizonHours / faultsim.HoursPerYear
}

// CumulativeFailedByYear returns failures-by-end-of-year (the Figure 1
// presentation of Tally.FailedByYear's per-year buckets).
func (s *Summary) CumulativeFailedByYear() []uint64 {
	out := make([]uint64, len(s.Tally.FailedByYear))
	var run uint64
	for y, n := range s.Tally.FailedByYear {
		run += n
		out[y] = run
	}
	return out
}

// fleetSnapshot is the checkpoint payload: completed-chunk bitmap plus the
// accumulated tallies and per-MC counters.
type fleetSnapshot struct {
	DIMMs      int          `json:"dimms"`
	Seed       uint64       `json:"seed"`
	ChunkSize  int          `json:"chunk_size"`
	Years      int          `json:"years"`
	DoneChunks []uint64     `json:"done_chunks"` // bitmap, chunk c at word c/64 bit c%64
	Complete   bool         `json:"complete"`
	Tally      Tally        `json:"tally"`
	MCs        []MCCounters `json:"mcs"`
}

// fleetHashInput is what the checkpoint config hash covers: everything
// that shapes the fault streams and the meaning of the accumulators.
// ChunkSize is always DefaultChunkSize; it stays in the input so that
// existing checkpoints still match.
type fleetHashInput struct {
	Config    Config `json:"config"`
	Seed      uint64 `json:"seed"`
	ChunkSize int    `json:"chunk_size"`
}

// fleetRun is one Run's domain layer over its chunk runner: the
// configuration, the accumulator the runner's lock guards, and the live
// metrics.
type fleetRun struct {
	cfg   Config
	opts  Options
	years int
	tally Tally
	mcs   []MCCounters
	run   *chunkrun.Runner[fleetSnapshot]
	met   fleetMetrics
}

// fleetMetrics holds pre-resolved obs handles; every field is nil (and
// every update a no-op) when Options.Metrics is unset.
type fleetMetrics struct {
	dimmsTotal  *obs.Gauge
	dimmsDone   *obs.Counter
	chunksDone  *obs.Counter
	chunksTotal *obs.Gauge
	failed      *obs.Counter
	ces         *obs.Counter
	ceNoInfo    *obs.Counter
	ues         *obs.Counter
	ueNoInfo    *obs.Counter
	retired     *obs.Counter
}

func newFleetMetrics(r *obs.Registry) fleetMetrics {
	return fleetMetrics{
		dimmsTotal:  r.Gauge("fleet.dimms_total"),
		dimmsDone:   r.Counter("fleet.dimms_done"),
		chunksDone:  r.Counter("fleet.chunks_done"),
		chunksTotal: r.Gauge("fleet.chunks_total"),
		failed:      r.Counter("fleet.dimms_failed"),
		ces:         r.Counter("fleet.ce_count"),
		ceNoInfo:    r.Counter("fleet.ce_noinfo_count"),
		ues:         r.Counter("fleet.ue_count"),
		ueNoInfo:    r.Counter("fleet.ue_noinfo_count"),
		retired:     r.Counter("fleet.retired_rows"),
	}
}

// publish advances the live counters by tally t.
func (m *fleetMetrics) publish(t *Tally) {
	m.dimmsDone.Add(t.DIMMs)
	m.failed.Add(t.Failed)
	m.ces.Add(t.CEs)
	m.ceNoInfo.Add(t.CENoInfo)
	m.ues.Add(t.UEs)
	m.ueNoInfo.Add(t.UENoInfo)
	m.retired.Add(t.RetiredRows)
}

// Run ages the configured fleet. It honours ctx cancellation by draining
// workers at chunk boundaries and returning the partial Summary alongside
// ctx's error; with CheckpointPath set it also snapshots progress
// periodically and on cancellation, and Resume picks a fleet back up from
// such a snapshot. Completed runs return a Summary covering exactly
// cfg.DIMMs DIMMs and a nil error.
func Run(ctx context.Context, cfg Config, opts Options) (*Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.CheckpointInterval <= 0 {
		opts.CheckpointInterval = DefaultCheckpointInterval
	}
	f := &fleetRun{cfg: cfg, opts: opts, years: cfg.Years()}
	src, err := cfg.trialSource() // its tables are shared by every worker's Fork
	if err != nil {
		return nil, err
	}
	var hash string
	if opts.CheckpointPath != "" {
		hash, err = checkpoint.Hash(fleetHashInput{Config: cfg, Seed: opts.Seed, ChunkSize: DefaultChunkSize})
		if err != nil {
			return nil, err
		}
	}
	f.tally.FailedByYear = make([]uint64, f.years)
	f.mcs = make([]MCCounters, cfg.MCs())
	f.run = chunkrun.New(cfg.DIMMs, DefaultChunkSize,
		chunkrun.Format{Kind: fleetCheckpointKind, Version: fleetCheckpointVersion, Hash: hash}, f)
	if opts.Resume && opts.CheckpointPath != "" {
		if err := f.run.Load(opts.CheckpointPath); err != nil {
			return nil, err
		}
	}
	f.met = newFleetMetrics(opts.Metrics)
	f.met.dimmsTotal.Set(int64(cfg.DIMMs))
	f.met.chunksTotal.Set(int64(f.run.Chunks()))
	if done := f.run.DoneChunks(); done > 0 {
		f.met.chunksDone.Add(uint64(done))
		f.met.publish(&f.tally)
	}
	if opts.View != nil {
		opts.View.bind(f.edacSnapshot)
	}

	runErr := f.run.Run(ctx, chunkrun.Options{
		Workers:  opts.Workers,
		Path:     opts.CheckpointPath,
		Interval: opts.CheckpointInterval,
		OnChunk:  opts.OnChunk,
		Metrics:  opts.Metrics,
		Prefix:   "fleet",
	}, func() (chunkrun.Worker, error) {
		w, err := newFleetWorker(&f.cfg, src.Fork(), f.opts.Seed, f.years)
		if err != nil {
			return nil, err
		}
		w.f = f
		return w, nil
	})
	// Every worker has returned; only the /edac view still reads the
	// accumulator.
	return &Summary{
		Config:    f.cfg,
		Seed:      opts.Seed,
		ChunkSize: DefaultChunkSize,
		Years:     f.years,
		Complete:  f.run.DoneChunks() == f.run.Chunks(),
		Tally:     f.tally.clone(),
		MCs:       append([]MCCounters(nil), f.mcs...),
	}, runErr
}

// Snapshot assembles the checkpoint payload (chunkrun.Codec).
func (f *fleetRun) Snapshot(done []uint64, complete bool) fleetSnapshot {
	return fleetSnapshot{
		DIMMs:      f.cfg.DIMMs,
		Seed:       f.opts.Seed,
		ChunkSize:  DefaultChunkSize,
		Years:      f.years,
		DoneChunks: done,
		Complete:   complete,
		Tally:      f.tally,
		MCs:        f.mcs,
	}
}

// Check validates a loaded payload's shape against the fleet
// (chunkrun.Codec).
func (f *fleetRun) Check(p *fleetSnapshot) ([]uint64, error) {
	if p.Years != f.years || len(p.Tally.FailedByYear) != f.years || len(p.MCs) != len(f.mcs) {
		return nil, fmt.Errorf("%d MCs over %d years (%d buckets), want %d over %d",
			len(p.MCs), p.Years, len(p.Tally.FailedByYear), len(f.mcs), f.years)
	}
	return p.DoneChunks, nil
}

// Restore seeds the accumulator from a checked payload (chunkrun.Codec).
func (f *fleetRun) Restore(p *fleetSnapshot) { f.tally, f.mcs = p.Tally, p.MCs }

func (t *Tally) clone() Tally {
	c := *t
	c.FailedByYear = append([]uint64(nil), t.FailedByYear...)
	return c
}

// edacSnapshot renders the live per-MC counters in EDAC shape (the /edac
// view's data source). Safe to call concurrently with merging.
func (f *fleetRun) edacSnapshot() *EDACSnapshot {
	f.run.Lock()
	mcs := append([]MCCounters(nil), f.mcs...)
	f.run.Unlock()
	return NewEDACSnapshot(&f.cfg, mcs)
}

// fleetWorker holds one goroutine's reusable per-DIMM state plus the
// current chunk's tallies. Nothing here allocates per healthy DIMM. Under
// Run it is the chunkrun.Worker of fleet f; History leaves f nil.
type fleetWorker struct {
	f       *fleetRun
	cfg     *Config
	dimmCfg faultsim.Config
	src     *faultsim.TrialSource
	ev      *faultsim.Evaluator
	seed    uint64
	years   int
	rng     simrand.Source
	buf     []faultsim.FaultRecord
	outs    []faultsim.TrialOutcome

	// Current chunk accumulators. mcs is a window over the memory
	// controllers the chunk's DIMM range touches, starting at mcLo.
	tally Tally
	mcLo  int
	mcs   []MCCounters
}

// newFleetWorker builds a worker that draws its DIMMs through src, a
// source of cfg.trialSource() the worker then owns.
func newFleetWorker(cfg *Config, src *faultsim.TrialSource, seed uint64, years int) (*fleetWorker, error) {
	w := &fleetWorker{cfg: cfg, src: src, seed: seed, years: years}
	w.dimmCfg = cfg.dimmConfig()
	schemes, err := cfg.schemes()
	if err != nil {
		return nil, err
	}
	w.ev = faultsim.NewEvaluator(&w.dimmCfg, schemes)
	w.tally.FailedByYear = make([]uint64, years)
	return w, nil
}

// RunChunk ages DIMMs [lo, hi) of chunk c into the worker's tallies.
func (w *fleetWorker) RunChunk(c, lo, hi int) {
	w.resetChunk(lo, hi)
	w.scanChunk(c, lo, hi,
		func(_, n int) {
			w.tally.DIMMs += uint64(n)
			w.tally.Arrivals[0] += uint64(n)
		},
		func(d int, recs []faultsim.FaultRecord) bool {
			w.simDIMM(d, recs)
			w.tally.DIMMs++
			return true
		})
}

// Fold adds the last chunk to the fleet's accumulator (chunkrun.Worker).
func (w *fleetWorker) Fold() error {
	w.f.tally.add(&w.tally)
	for i := range w.mcs {
		w.f.mcs[w.mcLo+i].add(&w.mcs[i])
	}
	return nil
}

// Publish advances the live counters by the last chunk (chunkrun.Worker).
func (w *fleetWorker) Publish() {
	w.f.met.chunksDone.Inc()
	w.f.met.publish(&w.tally)
}

func (w *fleetWorker) resetChunk(lo, hi int) {
	w.tally.DIMMs, w.tally.Faults = 0, 0
	w.tally.Failed, w.tally.DUEs, w.tally.SDCs = 0, 0, 0
	w.tally.CEs, w.tally.CENoInfo, w.tally.UEs, w.tally.UENoInfo = 0, 0, 0, 0
	w.tally.RetiredRows = 0
	clear(w.tally.Arrivals[:])
	clear(w.tally.FailedByYear)
	w.mcLo = lo / w.cfg.DIMMsPerMC
	mcHi := (hi-1)/w.cfg.DIMMsPerMC + 1
	if need := mcHi - w.mcLo; need > cap(w.mcs) {
		w.mcs = make([]MCCounters, need)
	} else {
		w.mcs = w.mcs[:need]
		clear(w.mcs)
	}
}

// scanChunk walks chunk c's DIMM range, reporting runs of zero-fault DIMMs
// to onEmpty and each faulty DIMM's record stream to onDIMM (return false
// to stop early). The chunk is planned exactly as a campaign chunk is, from
// the head of substream (seed, c), so History replays exactly what
// RunChunk aged. Every fleet scheme survives a fault-free DIMM (fleet
// configs set no scaling rate), so empty DIMMs are only counted.
func (w *fleetWorker) scanChunk(c, lo, hi int, onEmpty func(at, n int), onDIMM func(d int, recs []faultsim.FaultRecord) bool) {
	w.rng.SeedStream(w.seed, uint64(c))
	w.src.Plan(&w.rng, hi-lo)
	for d := lo; ; d++ {
		skipped, recs := w.src.NextNonEmpty(&w.rng, w.buf)
		w.buf = recs
		if skipped > 0 {
			onEmpty(d, skipped)
			d += skipped
		}
		if len(recs) == 0 || !onDIMM(d, recs) {
			return // the plan is spent (d == hi), or onDIMM stopped
		}
	}
}

// simDIMM ages one faulty DIMM: applies the retirement policy to its
// record stream, judges survival under the configured scheme, and books
// scrub-pass CE telemetry and any UE to the DIMM's memory controller.
func (w *fleetWorker) simDIMM(dimm int, recs []faultsim.FaultRecord) {
	h := DIMMHistory{DIMM: dimm}
	w.tally.RetiredRows += w.age(&h, recs)
	w.tally.Arrivals[min(h.Arrivals, ArrivalBins-1)]++
	w.tally.Faults += uint64(h.Arrivals)
	mc := &w.mcs[dimm/w.cfg.DIMMsPerMC-w.mcLo]
	mc.CE += h.CEs
	mc.CENoInfo += h.CENoInfo
	w.tally.CEs += h.CEs
	w.tally.CENoInfo += h.CENoInfo

	failTime := h.FailTime
	if math.IsInf(failTime, 1) {
		return
	}
	w.tally.Failed++
	w.tally.FailedByYear[min(int(failTime/faultsim.HoursPerYear), w.years-1)]++
	switch h.Kind {
	case faultsim.FailDUE:
		w.tally.DUEs++
		// A detected uncorrectable error reaches the EDAC counters;
		// whole-chip damage active at the failure instant means the
		// report carries no useful source address.
		if chipActiveAt(recs, failTime) {
			mc.UENoInfo++
			w.tally.UENoInfo++
		} else {
			mc.UE++
			w.tally.UEs++
		}
	case faultsim.FailSDC:
		w.tally.SDCs++ // silent: invisible to the monitor, no UE counter
	}
}

// age runs one faulty DIMM's record stream through its horizon: it counts
// fault arrivals, applies the retirement policy to the records in place
// (flagging h.Retired when it is non-nil), judges survival, and counts the
// scrub-pass CE reports, all into h. It returns the rows retired. simDIMM
// books the result into the chunk's tallies; History reports it.
func (w *fleetWorker) age(h *DIMMHistory, recs []faultsim.FaultRecord) (retiredRows uint64) {
	for i := range recs {
		if !isExpansionCopy(&recs[i]) {
			h.Arrivals++
		}
	}

	// Retirement first: truncating a record's End is exactly what
	// retiring its row does — the damage stops producing CEs and stops
	// participating in uncorrectable combinations.
	scrub := w.cfg.ScrubIntervalHours
	for i := range recs {
		r := &recs[i]
		if end, retired := w.retireEnd(r, scrub); retired {
			retiredRows++
			if h.Retired != nil {
				h.Retired[i] = true
			}
			r.End = min(r.End, end)
		}
	}

	w.outs = w.ev.EvaluateInto(recs, w.outs)
	h.FailTime, h.Kind = w.outs[0].FailTime, w.outs[0].Kind

	// CE telemetry: every scrub pass over live, non-silent damage logs
	// one correctable-error report (XED exposes even on-die-corrected
	// bit faults through catch-words — that is the paper's point).
	// Telemetry stops at the DIMM's failure (the replacement is
	// error-free), and whole-chip damage books to the noinfo counters.
	for i := range recs {
		r := &recs[i]
		if r.Silent && r.Gran == dram.GranWord {
			continue // the on-die code misses it: no catch-word, no CE
		}
		n := scrubTicksIn(r.Start, min(r.End, h.FailTime), scrub)
		if r.Gran == dram.GranChip {
			h.CENoInfo += n
		} else {
			h.CEs += n
		}
	}
	return retiredRows
}

// isExpansionCopy reports whether the record is a multi-rank event's
// expanded copy (the generator emits the event once at Rank 0 and copies
// it to each further rank under the same EventID).
func isExpansionCopy(r *faultsim.FaultRecord) bool {
	return r.EventID != 0 && r.Rank != 0
}

// chipActiveAt reports whether whole-chip damage is active at time t.
func chipActiveAt(recs []faultsim.FaultRecord, t float64) bool {
	for i := range recs {
		r := &recs[i]
		if r.Gran == dram.GranChip && r.Start <= t && t < r.End {
			return true
		}
	}
	return false
}

// scrubTicksIn counts patrol-scrub instants k*scrub in (start, end].
func scrubTicksIn(start, end, scrub float64) uint64 {
	if end <= start {
		return 0
	}
	n := math.Floor(end/scrub) - math.Floor(start/scrub)
	if n <= 0 {
		return 0
	}
	return uint64(n)
}

// nextScrubTick returns the first patrol-scrub instant strictly after
// start, matching the transient-clearing rule of the fault generator.
func nextScrubTick(start, scrub float64) float64 {
	t := math.Ceil(start/scrub) * scrub
	if t <= start {
		t = start + scrub
	}
	return t
}

// retirableGran reports whether row/page retirement can contain the fault:
// bit, word and row damage sits inside one row's footprint; column, bank
// and chip damage does not.
func retirableGran(g dram.Granularity) bool {
	return g == dram.GranBit || g == dram.GranWord || g == dram.GranRow
}

// retireEnd decides whether the policy retires the record's row and, if
// so, the instant the row leaves service. Retirement draws no randomness,
// so fault streams are policy-invariant.
func (w *fleetWorker) retireEnd(r *faultsim.FaultRecord, scrub float64) (end float64, retired bool) {
	p := w.cfg.Policy
	if p.Kind == PolicyNone || !retirableGran(r.Gran) {
		return 0, false
	}
	switch p.Kind {
	case PolicyOnFirstCE, PolicyThreshold:
		// CE-triggered policies: the OS acts on logged reports, so a
		// silent fault never triggers them, and a transient one can (the
		// scrub that clears it also logs it — capacity burned for no
		// reliability gain, which is exactly what the economics compare).
		if r.Silent && r.Gran == dram.GranWord {
			return 0, false
		}
		n := 1
		if p.Kind == PolicyThreshold {
			n = p.Threshold
		}
		if scrubTicksIn(r.Start, r.End, scrub) < uint64(n) {
			return 0, false // the fault never produces enough reports
		}
		return nextScrubTick(r.Start, scrub) + float64(n-1)*scrub, true
	case PolicyHARP:
		// Profile-triggered: a HARP-style active pass (infer.ProfileChip)
		// at the first scrub, whose verdict is fixed in advance. The pass
		// writes each probe word before reading it, so transient damage
		// profiles clean. A permanent fault flips a nonzero mask on every
		// read of its words. If the flipped word is no codeword of the
		// linear on-die code, the DC-Mux answers with the catch-word
		// (§V-A: on detection and correction alike); if it is a nonzero
		// codeword, its data part is nonzero and it reads back wrong, a
		// direct error in HARP's terms. So exactly the permanent records
		// still live at the tick are flagged, silent ones included
		// (TestHARPVerdictMatchesProfile, FuzzHARPVerdictVsProfile).
		if tick := nextScrubTick(r.Start, scrub); !r.Transient && tick < r.End {
			return tick, true
		}
		return 0, false // transient, or gone before profiling
	}
	return 0, false
}

// DIMMHistory is one DIMM's field history, regenerated on demand from the
// fleet's substreams rather than stored: exactly the records RunChunk aged
// (post-retirement Ends), the survival verdict, and the telemetry the DIMM
// contributed.
type DIMMHistory struct {
	DIMM int `json:"dimm"`
	// Arrivals counts fault events; Records carries the per-chip record
	// stream with policy-truncated Ends (empty for a healthy DIMM).
	Arrivals int                    `json:"arrivals"`
	Records  []faultsim.FaultRecord `json:"records,omitempty"`
	// Retired flags the records whose rows the policy retired.
	Retired []bool `json:"retired,omitempty"`
	// FailTime is +Inf for survivors; Kind classifies the failure.
	FailTime float64           `json:"fail_time_hours"`
	Kind     faultsim.FailKind `json:"-"`
	KindName string            `json:"kind"`
	// CEs / CENoInfo are the scrub-pass reports the DIMM logged.
	CEs      uint64 `json:"ces"`
	CENoInfo uint64 `json:"ce_noinfo"`
}

// MarshalJSON renders the history with a null fail time for survivors
// (FailTime is +Inf in memory, which JSON cannot carry).
func (h *DIMMHistory) MarshalJSON() ([]byte, error) {
	type alias DIMMHistory
	wire := struct {
		*alias
		FailTime *float64 `json:"fail_time_hours"`
	}{alias: (*alias)(h)}
	if !math.IsInf(h.FailTime, 1) {
		wire.FailTime = &h.FailTime
	}
	return json.Marshal(wire)
}

// History regenerates one DIMM's fault history. The result is identical to
// what a Run with the same (cfg, opts.Seed) aged for that DIMM, at any
// worker count: the DIMM's chunk substream is replayed from the chunk head
// through the DIMM. Of opts only Seed is read.
func History(cfg Config, opts Options, dimm int) (*DIMMHistory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dimm < 0 || dimm >= cfg.DIMMs {
		return nil, fmt.Errorf("fleet: DIMM %d out of range [0, %d)", dimm, cfg.DIMMs)
	}
	src, err := cfg.trialSource()
	if err != nil {
		return nil, err
	}
	w, err := newFleetWorker(&cfg, src, opts.Seed, cfg.Years())
	if err != nil {
		return nil, err
	}
	c := dimm / DefaultChunkSize
	lo := c * DefaultChunkSize
	hi := min(lo+DefaultChunkSize, cfg.DIMMs)
	h := &DIMMHistory{DIMM: dimm, FailTime: math.Inf(1), Kind: faultsim.FailNone}
	w.resetChunk(lo, hi)
	w.scanChunk(c, lo, hi,
		func(at, n int) {}, // a zero-fault DIMM keeps the healthy default
		func(d int, recs []faultsim.FaultRecord) bool {
			if d < dimm {
				return true
			}
			if d == dimm {
				h.Records = append([]faultsim.FaultRecord(nil), recs...)
				h.Retired = make([]bool, len(h.Records))
				w.age(h, h.Records)
			}
			return false
		})
	h.KindName = h.Kind.String()
	return h, nil
}
