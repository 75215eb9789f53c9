package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"time"

	"xedsim/internal/conformance"
	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/memsim"
	"xedsim/internal/obs"
)

// runConfig parameterises one workload run, made in a process of its own.
type runConfig struct {
	seed    uint64
	seconds time.Duration // how long the operation loop measures
	trace   bool
	workers int    // runtime.NumCPU(): the closed loop's parallelism
	scratch string // directory for state files
	size    sizes
}

// sizes pins every operation's size: a run repeats operations until its
// time is up and never resizes them, so parent and change do the same work
// per operation. Tests shrink them.
type sizes struct {
	campaignTrials int                 // trials per campaign-tablei operation
	fleetDIMMs     int                 // DIMMs per fleet-harp operation
	memsimInstr    int64               // instructions per core per memsim-fig11 pair
	claims         []string            // the claims verify-service runs, in order
	gate           conformance.Options // the gate's tuning, Runner unset
	probe          probeSizes
}

// gateClaims pins the conformance table by name, so a claim added to the
// table later does not change the verify-service workload.
var gateClaims = []string{
	"table1/fit-inputs",
	"secded/weight2-agreement",
	"crc8/burst-detection",
	"rs/xor-bridge",
	"rs/erasure-roundtrip",
	"diff/evaluator-vs-reference",
	"infer/beer-recovers-random-code",
	"infer/harp-flags-uncorrectable",
	"fig1/secded-within-nonecc-band",
	"fig7/xed-over-secded-10x",
	"fig7/chipkill-over-secded-10x",
	"fig7/xed-over-chipkill",
	"fig8/xed-over-secded-scaling",
	"fig9/dck-over-ck-5x",
	"fig9/xedck-over-dck",
	"fig10/xedck-over-dck-scaling",
	"table4/xed-no-sdc",
	"fleet/xed-field-rate-matches-campaign",
}

// paperSizes are the benchmark's sizes: each operation takes roughly half
// a second on two cores, so a 30-second run makes some 60 of them.
var paperSizes = sizes{
	campaignTrials: 20_000_000,
	fleetDIMMs:     8_000_000,
	memsimInstr:    40_000,
	claims:         gateClaims,
	// conformance.DefaultOptions as of this benchmark, copied so that a
	// change to the defaults shows up as a change of workload, not of speed.
	gate: conformance.Options{
		Batch:           250_000,
		MaxTrials:       24_000_000,
		Alpha:           1e-9,
		Beta:            1e-9,
		Separation:      2,
		Configs:         1000,
		TrialsPerConfig: 30,
	},
	probe: paperProbe,
}

// workload is one user path the benchmark drives.
type workload struct {
	name string
	run  func(ctx context.Context, rc *runConfig, rec *spanRecorder) (*outcome, error)
}

var workloads = []workload{
	{"campaign-tablei", runCampaign},
	{"fleet-harp", runFleet},
	{"memsim-fig11", runMemsim},
	{"verify-service", runService},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one timed operation.
type sample struct {
	dur       time.Duration
	work      float64 // the workload's unit of work done
	alloc     uint64  // bytes allocated during the operation
	attempted uint64
	failed    uint64
	traced    bool
	// scale converts the operation's time to the reference machine speed:
	// refCanaryMS over the time of the canary run right after it, or 1 for
	// an operation that waits rather than computes.
	scale float64
}

// outcome is a workload run's raw measurements.
type outcome struct {
	setup   []time.Duration
	samples []sample
	// attempted and failed count operations outside the timed ones: the
	// claims verify-service judges.
	attempted, failed uint64
}

// opSeed derives operation i's seed from the run seed (splitmix64), so that
// every operation of a run draws fresh inputs and the same seed gives the
// same inputs. Negative i serve set-up and warm-up calls.
func opSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1<<20)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// timeCalls times n calls of f.
func timeCalls(n int, f func(i int) error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

// opFunc runs one operation of pinned size with the given seed; traced
// selects the traced call. It returns the operation's work and counts, and
// its result, which must not depend on tracing.
type opFunc func(seed uint64, traced bool) (sample, any, error)

// measure runs and times one operation, with the bytes it allocates.
func measure(op opFunc, seed uint64, traced bool) (sample, any, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s, res, err := op(seed, traced)
	s.dur = time.Since(start)
	runtime.ReadMemStats(&m1)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.traced = traced
	s.scale = 1
	return s, res, err
}

// loop runs op in a closed loop for rc.seconds after one untimed warm-up
// call, so caches fill and lazy set-up finishes before timing. Before each
// operation it times one minimal call, setup, so that the set-up median
// samples the whole run rather than one moment of it.
//
// After each operation it times the canary, and scales the operation and
// its set-up call to the reference machine speed by it. On a shared host
// other tenants slow CPU-bound code by up to a factor of two for minutes
// at a time, the canary alike; the scaled times keep a change of machine
// speed from reading as a change of the program's.
//
// The traced run follows every operation with its traced twin on the same
// seed instead, and requires the two results to be identical.
func loop(rc *runConfig, setup func(seed uint64) error, op opFunc) (*outcome, error) {
	out := &outcome{}
	if _, _, err := op(opSeed(rc.seed, -1), false); err != nil {
		return out, err
	}
	deadline := time.Now().Add(rc.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		start := time.Now()
		if err := setup(opSeed(rc.seed, -2-i)); err != nil {
			return out, err
		}
		setupDur := time.Since(start)
		seed := opSeed(rc.seed, i)
		s, res, err := measure(op, seed, false)
		if err != nil {
			return out, err
		}
		if !rc.trace {
			s.scale = refCanaryMS / canaryMS()
		}
		out.setup = append(out.setup, time.Duration(float64(setupDur)*s.scale))
		out.samples = append(out.samples, s)
		if !rc.trace {
			continue
		}
		st, rest, err := measure(op, seed, true)
		if err != nil {
			return out, err
		}
		out.samples = append(out.samples, st)
		if !reflect.DeepEqual(res, rest) {
			return out, fmt.Errorf("traced result for seed %#x differs from the untraced one", seed)
		}
	}
	return out, nil
}

// runCampaign is campaign-tablei: faultsim.RunCampaign on the paper's
// Table I system and all six schemes, zero-value engine and generator,
// exactly as xedfaultsim runs it by default. Work is trials.
func runCampaign(ctx context.Context, rc *runConfig, rec *spanRecorder) (*outcome, error) {
	ref, err := loadTableIReference()
	if err != nil {
		return nil, err
	}
	cfg, schemes := faultsim.DefaultConfig(), faultsim.AllSchemes()
	campaign := func(trials int, seed uint64, reg *obs.Registry, onChunk func(int, int)) (*faultsim.Report, error) {
		return faultsim.RunCampaign(ctx, cfg, schemes, faultsim.CampaignOptions{
			Trials: trials, Seed: seed, Workers: rc.workers, Metrics: reg, OnChunk: onChunk,
		})
	}
	var trials uint64
	failures := map[string]uint64{}
	setup := func(seed uint64) error {
		_, err := campaign(faultsim.DefaultChunkSize, seed, nil, nil)
		return err
	}
	out, err := loop(rc, setup, func(seed uint64, traced bool) (sample, any, error) {
		var reg *obs.Registry
		var onChunk func(int, int)
		chunks := 0
		if traced {
			reg = obs.NewRegistry()
			onChunk = func(int, int) { chunks++ }
			defer rec.end(rec.begin("faultsim.RunCampaign", 0))
		}
		rep, err := campaign(rc.size.campaignTrials, seed, reg, onChunk)
		if err != nil {
			return sample{}, nil, err
		}
		if err := checkCampaignReport(rep); err != nil {
			return sample{}, nil, err
		}
		if want := (rc.size.campaignTrials + faultsim.DefaultChunkSize - 1) / faultsim.DefaultChunkSize; traced && chunks != want {
			return sample{}, nil, fmt.Errorf("campaign: OnChunk saw %d of %d chunks", chunks, want)
		}
		if !traced {
			trials += rep.Trials
			for _, r := range rep.Results {
				failures[r.SchemeName] += r.Failures
			}
		}
		return sample{work: float64(rep.Trials), attempted: rep.Requested, failed: rep.Requested - rep.Trials}, rep, nil
	})
	if err == nil {
		err = checkCampaignTotals(trials, failures, ref)
	}
	return out, err
}

// harpFleet is the fleet-harp configuration: the default XED fleet under
// HARP-profiled row retirement, with 65536 DIMMs per memory controller (as
// in the CI smoke) so the EDAC counter blocks stay few.
func harpFleet(dimms int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.DIMMs = dimms
	cfg.Policy = fleet.Policy{Kind: fleet.PolicyHARP}
	cfg.DIMMsPerMC = 65536
	return cfg
}

// runFleet is fleet-harp: fleet.Run over seven years. Work is DIMM-years.
func runFleet(ctx context.Context, rc *runConfig, rec *spanRecorder) (*outcome, error) {
	run := func(dimms int, seed uint64, reg *obs.Registry, onChunk func(int, int)) (fleet.Config, *fleet.Summary, error) {
		cfg := harpFleet(dimms)
		sum, err := fleet.Run(ctx, cfg, fleet.Options{Seed: seed, Workers: rc.workers, Metrics: reg, OnChunk: onChunk})
		return cfg, sum, err
	}
	setup := func(seed uint64) error {
		_, _, err := run(fleet.DefaultChunkSize, seed, nil, nil)
		return err
	}
	return loop(rc, setup, func(seed uint64, traced bool) (sample, any, error) {
		var reg *obs.Registry
		var onChunk func(int, int)
		if traced {
			reg = obs.NewRegistry()
			onChunk = func(int, int) {}
			defer rec.end(rec.begin("fleet.Run", 0))
		}
		cfg, sum, err := run(rc.size.fleetDIMMs, seed, reg, onChunk)
		if err != nil {
			return sample{}, nil, err
		}
		if err := checkFleet(cfg, sum); err != nil {
			return sample{}, nil, err
		}
		return sample{work: sum.MachineYears(), attempted: uint64(cfg.DIMMs), failed: uint64(cfg.DIMMs) - sum.Tally.DIMMs}, sum, nil
	})
}

// fig11Schemes are Figure 11's schemes, the SECDED baseline first.
func fig11Schemes() []memsim.SchemeConfig {
	return []memsim.SchemeConfig{
		memsim.SECDEDScheme(),
		memsim.XEDScheme(),
		memsim.ChipkillScheme(),
		memsim.XEDChipkillScheme(),
		memsim.DoubleChipkillScheme(),
	}
}

// tracedComparison is memsim.RunComparison's traced twin: the same pairs,
// configuration, instruction count and seed formula, run on a pool of
// workers goroutines, with every pair a "memsim.pair" span publishing to
// reg. It also returns each pair's host time.
func tracedComparison(ctx context.Context, wls []memsim.Workload, schemes []memsim.SchemeConfig, instr int64, seed uint64, workers int, reg *obs.Registry, rec *spanRecorder, parent int64) (*memsim.Comparison, [][]time.Duration) {
	cmp := &memsim.Comparison{Workloads: wls, Schemes: schemes, Results: make([][]memsim.Result, len(wls))}
	durs := make([][]time.Duration, len(wls))
	for w := range wls {
		cmp.Results[w] = make([]memsim.Result, len(schemes))
		durs[w] = make([]time.Duration, len(schemes))
	}
	pairs := make(chan [2]int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pairs {
				w, s := p[0], p[1]
				cfg := memsim.DefaultConfig(wls[w], schemes[s])
				cfg.InstrPerCore = instr
				cfg.Seed = seed + uint64(w)*977
				cfg.Metrics = reg
				id := rec.begin("memsim.pair", parent)
				start := time.Now()
				cmp.Results[w][s] = memsim.New(cfg).RunContext(ctx)
				durs[w][s] = time.Since(start)
				rec.end(id)
			}
		}()
	}
	for w := range wls {
		for s := range schemes {
			pairs <- [2]int{w, s}
		}
	}
	close(pairs)
	wg.Wait()
	return cmp, durs
}

// totalCycles sums the simulated bus cycles of every pair.
func totalCycles(c *memsim.Comparison) (cycles int64, empty int) {
	for _, row := range c.Results {
		for _, r := range row {
			cycles += r.Cycles
			if r.Cycles == 0 {
				empty++
			}
		}
	}
	return cycles, empty
}

// runMemsim is memsim-fig11: memsim.RunComparison over the paper's 31
// workloads and Figure 11's five schemes. Work is simulated bus cycles.
func runMemsim(ctx context.Context, rc *runConfig, rec *spanRecorder) (*outcome, error) {
	wls, schemes := memsim.PaperWorkloads(), fig11Schemes()
	setup := func(seed uint64) error {
		cfg := memsim.DefaultConfig(wls[0], schemes[0])
		cfg.InstrPerCore = 1000
		cfg.Seed = seed
		memsim.New(cfg).RunContext(ctx)
		return ctx.Err()
	}
	return loop(rc, setup, func(seed uint64, traced bool) (sample, any, error) {
		var cmp *memsim.Comparison
		if traced {
			id := rec.begin("memsim.comparison", 0)
			cmp, _ = tracedComparison(ctx, wls, schemes, rc.size.memsimInstr, seed, rc.workers, obs.NewRegistry(), rec, id)
			rec.end(id)
		} else {
			var err error
			if cmp, err = memsim.RunComparison(ctx, wls, schemes, rc.size.memsimInstr, seed, rc.workers); err != nil {
				return sample{}, nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return sample{}, nil, err
		}
		if err := checkComparison(cmp, rc.size.memsimInstr); err != nil {
			return sample{}, nil, err
		}
		cycles, empty := totalCycles(cmp)
		pairs := uint64(len(wls) * len(schemes))
		return sample{work: float64(cycles), attempted: pairs, failed: uint64(empty)}, cmp, nil
	})
}

// errDeadline stops the gate between two jobs once the run's time is up.
var errDeadline = errors.New("run time is up")

// ciGateSeed is the seed the CI gate runs the conformance table at
// (conformance.DefaultOptions). verify-service replays that traffic and
// continues at the seeds after it; it does not take the run's seed, because
// the table's sequential tests are tuned to confirm at these seeds, while at
// some others a claim is refuted (consecutive batch seeds differ by the
// constant simrand steps between chunk substreams, so batches share
// streams). Seeds 42 to 49 each confirm every claim.
const ciGateSeed = 42

// runService is verify-service: the conformance gate through an in-process
// campaign service, one closed-loop client, each job submitted only after
// the previous Report returned. An operation is one job; work is trials.
// The gate repeats with the next seed per pass, so no job is ever served
// from the completed-job cache, and stops between jobs when time is up.
// Set-up is one bring-up of a separate service, timed up to its worker's
// first lease request, before each claim.
func runService(ctx context.Context, rc *runConfig, rec *spanRecorder) (*outcome, error) {
	claims, err := conformance.SelectClaims(conformance.PaperClaims(), rc.size.claims)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	bringUp := func() error {
		start := time.Now()
		s, err := startService(ctx, rc.scratch, rc.workers, nil)
		if err != nil {
			return err
		}
		werr := s.waitLeased(ctx)
		out.setup = append(out.setup, time.Since(start))
		if err := s.close(); err != nil {
			return err
		}
		return werr
	}

	var tt *timingTransport
	svc, err := startService(ctx, rc.scratch, rc.workers, func(base http.RoundTripper) http.RoundTripper {
		if !rc.trace {
			return base
		}
		tt = newTimingTransport(base, rec)
		return tt
	})
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := svc.waitLeased(ctx); err != nil {
		return nil, err
	}

	remote := svc.client.Runner()
	deadline := time.Now().Add(rc.seconds)
	jobs := 0
	// At least two jobs run, so that a traced run has a traced and an
	// untraced one to compare. Then the gate stops once time is up, between
	// claims or, through the runner, between the jobs of a claim; a claim
	// cut short is not judged.
	timeUp := func() bool { return jobs >= 2 && !time.Now().Before(deadline) }
	var claimSpan int64
	runner := func(ctx context.Context, cfg faultsim.Config, schemes []faultsim.Scheme, opts faultsim.CampaignOptions) (*faultsim.Report, error) {
		if timeUp() {
			return nil, errDeadline
		}
		traced := rc.trace && jobs%2 == 1
		jobs++
		var rep *faultsim.Report
		s, _, err := measure(func(uint64, bool) (sample, any, error) {
			jctx := ctx
			if traced {
				id := rec.begin("dist.job", claimSpan)
				defer rec.end(id)
				tt.job.Store(id)
				tt.on.Store(true)
				defer tt.on.Store(false)
				jctx = withSpan(ctx, id)
			}
			var err error
			if rep, err = remote(jctx, cfg, schemes, opts); err != nil {
				return sample{attempted: 1, failed: 1}, nil, err
			}
			return sample{work: float64(rep.Trials), attempted: 1}, nil, nil
		}, 0, traced)
		out.samples = append(out.samples, s)
		if err == nil && traced {
			err = sameAsLocal(ctx, rep, cfg, schemes, opts, rc.workers)
		}
		return rep, err
	}

	var verdicts []conformance.Verdict
	for pass := 0; !timeUp(); pass++ {
		if pass > 0 && jobs == 0 {
			return out, errors.New("verify-service: the claims ran no job")
		}
		o := rc.size.gate
		o.Seed, o.Workers, o.Runner = ciGateSeed+uint64(pass), rc.workers, runner
		for _, c := range claims {
			if timeUp() {
				break
			}
			if err := bringUp(); err != nil {
				return out, err
			}
			claimSpan = rec.begin("conformance.claim", 0)
			v := conformance.Run(ctx, []conformance.Claim{c}, o, nil)[0]
			rec.end(claimSpan)
			if errors.Is(v.Err, errDeadline) {
				break
			}
			verdicts = append(verdicts, v)
			out.attempted++
			if v.Status != conformance.Confirmed {
				out.failed++
			}
		}
	}
	return out, checkService(verdicts, svc.counters())
}

// sameAsLocal checks that a job run through the traced service produced
// the scheme tallies a local RunCampaign of the same campaign produces: the
// service's bit-identity contract, which tracing must not break.
func sameAsLocal(ctx context.Context, rep *faultsim.Report, cfg faultsim.Config, schemes []faultsim.Scheme, opts faultsim.CampaignOptions, workers int) error {
	opts.Workers = workers
	local, err := faultsim.RunCampaign(ctx, cfg, schemes, opts)
	if err != nil {
		return err
	}
	if rep.Trials != local.Trials || !reflect.DeepEqual(rep.Results, local.Results) {
		return fmt.Errorf("traced service job (seed %#x) differs from the local campaign", opts.Seed)
	}
	return nil
}
