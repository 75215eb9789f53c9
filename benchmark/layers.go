package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"xedsim/internal/conformance"
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/infer"
	"xedsim/internal/memsim"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// The traced run reports every per-layer metric whichever workload it
// traces, so the layers are measured by fixed-size passes of their own,
// each calling one layer through its exported functions. The workload's
// own traced operations add the tracing overhead.

// probeSizes pins the layer passes.
type probeSizes struct {
	chunks     int   // campaign chunks of the single-goroutine faultsim pass
	genTrials  int   // trials drawn by the generation and judging passes
	draws      int   // simrand draws, codeword decodes and chip reads per pass
	fleetDIMMs int   // DIMMs of the fleet pass
	harpDIMMs  int   // leading DIMMs of that fleet whose histories HARP replays
	instr      int64 // instructions per core of the memsim pass
	jobs       int   // jobs of the service pass
}

var paperProbe = probeSizes{
	chunks:     256,
	genTrials:  1 << 20,
	draws:      1 << 20,
	fleetDIMMs: 1 << 19,
	harpDIMMs:  20_000,
	instr:      10_000,
	jobs:       4,
}

// probeLayers runs every layer pass and returns the per-layer metrics
// (trace.overhead_pct excepted: it comes from the workload's operations).
func probeLayers(ctx context.Context, rc *runConfig, rec *spanRecorder) (metrics, error) {
	m := metrics{}
	passes := []struct {
		name string
		run  func(context.Context, *runConfig, *spanRecorder, metrics) error
	}{
		{"faultsim", probeCampaign},
		{"generator", probeGenerator},
		{"simrand", probeSimrand},
		{"fleet", probeFleet},
		{"harp", probeHARP},
		{"memsim", probeMemsim},
		{"dist", probeService},
		{"conformance", probeGate},
	}
	for _, p := range passes {
		id := rec.begin("probe."+p.name, 0)
		err := p.run(ctx, rc, rec, m)
		rec.end(id)
		if err != nil {
			return m, fmt.Errorf("%s pass: %w", p.name, err)
		}
	}
	return m, nil
}

func ns(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// probeCampaign times the campaign's distributed seam on the first chunks
// of a Table I campaign: runner set-up, one RunSpan and one Merge per
// chunk on a single goroutine, the merged checkpoint, and then the same
// chunks through RunCampaign on all workers, traced and untraced.
func probeCampaign(ctx context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	cfg, schemes := faultsim.DefaultConfig(), faultsim.AllSchemes()
	p := rc.size.probe
	opts := faultsim.CampaignOptions{Trials: p.chunks * faultsim.DefaultChunkSize, Seed: rc.seed}
	setup, err := timeCalls(11, func(int) error {
		_, err := faultsim.NewChunkRunner(cfg, schemes, opts)
		return err
	})
	if err != nil {
		return err
	}
	m.set("faultsim.runner_setup_ms", median(millis(setup)), "ms")

	runner, err := faultsim.NewChunkRunner(cfg, schemes, opts)
	if err != nil {
		return err
	}
	merger, err := faultsim.NewMerger(cfg, schemes, opts)
	if err != nil {
		return err
	}
	var spans, merges []time.Duration
	for c := 0; c < runner.NumChunks(); c++ {
		start := time.Now()
		res, err := runner.RunSpan(ctx, c, c+1)
		if err != nil {
			return err
		}
		mid := time.Now()
		if err := merger.Merge(res); err != nil {
			return err
		}
		spans = append(spans, mid.Sub(start))
		merges = append(merges, time.Since(mid))
	}
	spanMS := millis(spans)
	m.set("faultsim.run_span_ms.p50", median(spanMS), "ms")
	m.set("faultsim.run_span_ms.p90", nearestRank(spanMS, 90), "ms")
	m.set("faultsim.merge_us", median(millis(merges))*1e3, "us")

	snap, err := merger.SnapshotBytes()
	if err != nil {
		return err
	}
	m.set("checkpoint.snapshot_kb", float64(len(snap))/1024, "KB")
	dir, err := os.MkdirTemp(rc.scratch, "checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	saves, err := timeCalls(5, func(int) error { return merger.Save(filepath.Join(dir, "campaign.ckpt")) })
	if err != nil {
		return err
	}
	m.set("checkpoint.save_ms", median(millis(saves)), "ms")

	reg := obs.NewRegistry()
	traced := opts
	traced.Workers, traced.Metrics = rc.workers, reg
	rep, err := faultsim.RunCampaign(ctx, cfg, schemes, traced)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(rep.Results, merger.Report().Results) {
		return errors.New("RunCampaign and the chunk-by-chunk merge disagree")
	}
	evaluated := reg.Snapshot().Counters["campaign.trials_evaluated"]
	m.set("faultsim.judged_ratio", float64(evaluated)/float64(opts.Trials), "fraction")

	plain := opts
	plain.Workers = rc.workers
	par, err := timeCalls(5, func(int) error {
		_, err := faultsim.RunCampaign(ctx, cfg, schemes, plain)
		return err
	})
	if err != nil {
		return err
	}
	parRate := float64(opts.Trials) / median(seconds(par))
	singleRate := float64(faultsim.DefaultChunkSize) / median(seconds(spans))
	m.set("faultsim.scaling_efficiency", parRate/(float64(rc.workers)*singleRate), "fraction")
	return nil
}

// probeGenerator times trial generation through faultsim.TrialSource and
// judging of the generated non-empty trials by the indexed Evaluator and
// by the bit-sliced LaneEvaluator.
func probeGenerator(_ context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	cfg := faultsim.DefaultConfig()
	src, err := faultsim.NewTrialSource(&cfg)
	if err != nil {
		return err
	}
	n := rc.size.probe.genTrials
	draw := func(keep func([]faultsim.FaultRecord)) {
		rng := simrand.New(rc.seed)
		var buf []faultsim.FaultRecord
		for t := 0; t < n; t++ {
			skipped, recs := src.NextNonEmpty(rng, buf)
			buf = recs
			t += skipped
			if keep != nil && len(recs) > 0 {
				keep(recs)
			}
		}
	}
	start := time.Now()
	draw(nil)
	m.set("faultsim.gen_ns_per_trial", ns(time.Since(start), n), "ns")

	var trials [][]faultsim.FaultRecord
	records := 0
	draw(func(recs []faultsim.FaultRecord) {
		trials = append(trials, append([]faultsim.FaultRecord(nil), recs...))
		records += len(recs)
	})
	if len(trials) == 0 {
		return errors.New("no trial drew a fault")
	}
	m.set("faultsim.records_per_trial", float64(records)/float64(len(trials)), "count")

	ev := faultsim.NewEvaluator(&cfg, faultsim.AllSchemes())
	var outs []faultsim.TrialOutcome
	start = time.Now()
	for _, t := range trials {
		outs = ev.EvaluateInto(t, outs)
	}
	m.set("faultsim.judge_ns_per_trial", ns(time.Since(start), len(trials)), "ns")

	reg := obs.NewRegistry()
	lv := faultsim.NewLaneEvaluator(ev)
	lv.SetCounters(reg.Counter("batches"), reg.Counter("probes"))
	var b faultsim.LaneBatch
	var st simrand.State
	start = time.Now()
	for i, t := range trials {
		b.Add(i, st, t)
		if b.Lanes() == faultsim.LaneWidth || i == len(trials)-1 {
			lv.EvaluateBatch(&b)
			b.Reset()
		}
	}
	m.set("faultsim.lane_judge_ns_per_trial", ns(time.Since(start), len(trials)), "ns")
	c := reg.Snapshot().Counters
	m.set("faultsim.lane_probes_per_batch", float64(c["probes"])/float64(c["batches"]), "count")
	return nil
}

// sink keeps the timed loops' results alive.
var sink uint64

// probeSimrand times the two draws trial generation rests on.
func probeSimrand(_ context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	n := rc.size.probe.draws
	rng := simrand.New(rc.seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += rng.Uint64()
	}
	m.set("simrand.uint64_ns", ns(time.Since(start), n), "ns")
	start = time.Now()
	for i := 0; i < n; i++ {
		sink += uint64(rng.Poisson(0.5))
	}
	m.set("simrand.poisson_ns", ns(time.Since(start), n), "ns")
	return nil
}

// probeFleet ages a fleet-harp fleet on one worker, so the intervals
// between chunk merges are chunk times.
func probeFleet(ctx context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	cfg := harpFleet(rc.size.probe.fleetDIMMs)
	reg := obs.NewRegistry()
	var chunkMS []float64
	last := time.Now()
	sum, err := fleet.Run(ctx, cfg, fleet.Options{Seed: rc.seed, Workers: 1, Metrics: reg, OnChunk: func(int, int) {
		now := time.Now()
		chunkMS = append(chunkMS, float64(now.Sub(last))/float64(time.Millisecond))
		last = now
	}})
	if err != nil {
		return err
	}
	if err := checkFleet(cfg, sum); err != nil {
		return err
	}
	m.set("fleet.chunk_ms.p50", median(chunkMS), "ms")
	m.set("fleet.chunk_ms.p90", nearestRank(chunkMS, 90), "ms")
	m.set("fleet.faults_per_dimm", float64(sum.Tally.Faults)/float64(sum.Tally.DIMMs), "count")
	m.set("fleet.retired_rows", float64(sum.Tally.RetiredRows), "count")
	m.set("fleet.ce_count", float64(reg.Snapshot().Counters["fleet.ce_count"]), "count")
	return nil
}

// probeHARP replays the fleet's HARP profiling on the fault records of the
// fleet pass's leading DIMMs, taken from fleet.History: one CRC8-ATM chip,
// the record's fault injected, then infer.ProfileChip with two rounds over
// the words the fleet profiles. It also times the chip read and the two
// on-die decoders underneath.
func probeHARP(_ context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	p := rc.size.probe
	cfg := harpFleet(p.fleetDIMMs)
	var recs []faultsim.FaultRecord
	for d := 0; d < p.harpDIMMs; d++ {
		h, err := fleet.History(cfg, fleet.Options{Seed: rc.seed}, d)
		if err != nil {
			return err
		}
		for _, r := range h.Records {
			if r.Gran == dram.GranBit || r.Gran == dram.GranWord || r.Gran == dram.GranRow {
				recs = append(recs, r)
			}
		}
	}
	if len(recs) == 0 {
		return errors.New("no retirable fault among the replayed DIMMs")
	}
	chip := dram.NewChip(cfg.Geom, ecc.NewCRC8ATM())
	us := make([]float64, 0, len(recs))
	addrs := make([]dram.WordAddr, 0, 4)
	cols := cfg.Geom.ColsPerRow
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, r := range recs {
		chip.ClearFaults()
		chip.InjectFault(r.Range)
		addrs = addrs[:0]
		if r.Gran == dram.GranRow {
			for _, col := range [...]int{0, 1, cols / 2, cols - 1} {
				addrs = append(addrs, dram.WordAddr{Bank: r.Range.Bank, Row: r.Range.Row, Col: col})
			}
		} else {
			addrs = append(addrs, dram.WordAddr{Bank: r.Range.Bank, Row: r.Range.Row, Col: r.Range.Col})
		}
		start := time.Now()
		infer.ProfileChip(chip, addrs, infer.HARPOptions{Rounds: 2, Seed: opSeed(rc.seed, i)})
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	runtime.ReadMemStats(&m1)
	m.set("infer.profile_us.p50", median(us), "us")
	m.set("infer.profile_us.p90", nearestRank(us, 90), "us")
	m.set("infer.profile_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(len(recs)), "count")
	m.set("infer.profile_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(recs)), "KB")

	n := p.draws
	r := recs[0].Range
	a := dram.WordAddr{Bank: max(r.Bank, 0), Row: max(r.Row, 0), Col: max(r.Col, 0)}
	chip.ClearFaults()
	chip.Write(a, 0x0123456789abcdef)
	chip.InjectFault(r)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += chip.Read(a).Data
	}
	m.set("dram.read_ns", ns(time.Since(start), n), "ns")

	rng := simrand.New(rc.seed)
	decode := func(code ecc.Code64) float64 {
		words := make([]ecc.Codeword72, 1024)
		for i := range words {
			words[i] = code.Encode(rng.Uint64())
			words[i].Data ^= 1 << (i % 64) // one flipped bit: a correction
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			d, _ := code.Decode(words[i%len(words)])
			sink += d
		}
		return ns(time.Since(start), n)
	}
	m.set("ecc.crc8_decode_ns", decode(ecc.NewCRC8ATM()), "ns")
	m.set("ecc.linear_decode_ns", decode(ecc.RandomSECDED(rng)), "ns")
	return nil
}

// schemeSlug names a Figure 11 scheme inside a metric name.
var schemeSlug = map[string]string{
	"SECDED":                           "secded",
	"XED (9 chips)":                    "xed",
	"Chipkill (18 chips)":              "chipkill",
	"XED + Single Chipkill (18 chips)": "xed_chipkill",
	"Double-Chipkill (36 chips)":       "double_chipkill",
}

// probeMemsim runs the Figure 11 comparison traced, pair by pair, and
// requires it to equal the untraced memsim.RunComparison.
func probeMemsim(ctx context.Context, rc *runConfig, rec *spanRecorder, m metrics) error {
	wls, schemes := memsim.PaperWorkloads(), fig11Schemes()
	instr := rc.size.probe.instr
	want, err := memsim.RunComparison(ctx, wls, schemes, instr, rc.seed, rc.workers)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	got, durs := tracedComparison(ctx, wls, schemes, instr, rc.seed, rc.workers, reg, rec, 0)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err := ctx.Err(); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("traced comparison differs from memsim.RunComparison")
	}

	var pairS []float64
	var busy time.Duration
	hostNS := make([]float64, len(schemes))
	cycles := make([]float64, len(schemes))
	for w := range wls {
		for s := range schemes {
			pairS = append(pairS, durs[w][s].Seconds())
			busy += durs[w][s]
			hostNS[s] += float64(durs[w][s])
			cycles[s] += float64(got.Results[w][s].Cycles)
		}
	}
	m.set("memsim.pair_s.p50", median(pairS), "s")
	m.set("memsim.pair_s.p90", nearestRank(pairS, 90), "s")
	for s, sc := range schemes {
		m.set("memsim.host_ns_per_cycle."+schemeSlug[sc.Name], hostNS[s]/cycles[s], "ns")
	}
	m.set("memsim.pool_tail_s", (wall - busy/time.Duration(rc.workers)).Seconds(), "s")
	total, _ := totalCycles(got)
	m.set("memsim.alloc_kb_per_kcycle", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/(float64(total)/1000), "KB")

	snap := reg.Snapshot()
	m.set("memsim.reads", float64(snap.Counters["memsim.reads"]), "count")
	m.set("memsim.writes", float64(snap.Counters["memsim.writes"]), "count")
	m.set("memsim.bank_conflicts", float64(snap.Counters["memsim.bank_conflicts"]), "count")
	m.set("memsim.read_latency_p50_cycles", histogramMedian(snap.Histograms["memsim.read_latency_cycles"]), "cycles")
	return nil
}

// histogramMedian returns the upper bound of the bucket holding the
// median observation (the last bound for the overflow bucket).
func histogramMedian(h obs.HistogramSnapshot) float64 {
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if 2*seen >= h.Count && h.Count > 0 {
			return h.Bounds[min(i, len(h.Bounds)-1)]
		}
	}
	return 0
}

// probeService runs a few gate-sized jobs through a traced service.
func probeService(ctx context.Context, rc *runConfig, rec *spanRecorder, m metrics) error {
	var tt *timingTransport
	svc, err := startService(ctx, rc.scratch, rc.workers, func(base http.RoundTripper) http.RoundTripper {
		tt = newTimingTransport(base, rec)
		return tt
	})
	if err != nil {
		return err
	}
	defer svc.close()
	if err := svc.waitLeased(ctx); err != nil {
		return err
	}
	// The shape of one batch of a gate ratio claim.
	cfg := faultsim.DefaultConfig()
	schemes, err := faultsim.SchemesByName("XED", "ECC-DIMM (SECDED)")
	if err != nil {
		return err
	}
	run := svc.client.Runner()
	tt.on.Store(true)
	var jobIDs []int64
	for i := 0; i < rc.size.probe.jobs; i++ {
		opts := faultsim.CampaignOptions{Trials: rc.size.gate.Batch, Seed: opSeed(rc.seed, i)}
		id := rec.begin("dist.job", 0)
		tt.job.Store(id)
		rep, err := run(withSpan(ctx, id), cfg, schemes, opts)
		rec.end(id)
		if err != nil {
			return err
		}
		if err := sameAsLocal(ctx, rep, cfg, schemes, opts, rc.workers); err != nil {
			return err
		}
		jobIDs = append(jobIDs, id)
	}
	tt.on.Store(false)
	if err := checkService(nil, svc.counters()); err != nil {
		return err
	}

	spans := rec.snapshot()
	kids := childrenOf(spans)
	var jobTime, unitTime, selfT time.Duration
	var units []float64
	rtt := map[string][]float64{}
	polls := 0
	for _, id := range jobIDs {
		job := spans[id-1]
		jobTime += job.dur()
		selfT += selfTime(job, kids[id])
		for _, c := range kids[id] {
			switch {
			case c.Name == "dist.unit":
				unitTime += c.dur()
				units = append(units, float64(c.dur())/float64(time.Millisecond))
			case strings.HasPrefix(c.Name, "http."):
				kind := strings.TrimPrefix(c.Name, "http.")
				rtt[kind] = append(rtt[kind], float64(c.dur())/float64(time.Millisecond))
				if kind == "status" {
					polls++
				}
			}
		}
	}
	jobs := float64(len(jobIDs))
	m.set("dist.polls_per_job", float64(polls)/jobs, "count")
	m.set("dist.idle_leases_per_job", float64(tt.idleLeases.Load())/jobs, "count")
	m.set("dist.unit_ms.p50", median(units), "ms")
	m.set("dist.compute_share", unitTime.Seconds()/jobTime.Seconds(), "fraction")
	m.set("dist.wait_share", selfT.Seconds()/jobTime.Seconds(), "fraction")
	for _, kind := range []string{"submit", "status", "result", "lease", "complete"} {
		m.set("dist.rtt_ms."+kind+".p50", median(rtt[kind]), "ms")
	}
	h := svc.reg.Snapshot().Histograms["dist.merge_ms"]
	m.set("dist.merge_ms.mean", h.Mean(), "ms")
	return nil
}

// claimMetric names a claim's per-layer metric.
func claimMetric(claim string) string {
	return "conformance." + strings.ReplaceAll(claim, "/", ".") + ".s"
}

// probeGate runs the pinned conformance table at the CI seed on local
// cores and times every claim.
func probeGate(ctx context.Context, rc *runConfig, _ *spanRecorder, m metrics) error {
	claims, err := conformance.SelectClaims(conformance.PaperClaims(), gateClaims)
	if err != nil {
		return err
	}
	o := rc.size.gate
	o.Seed, o.Workers = ciGateSeed, rc.workers
	for _, v := range conformance.Run(ctx, claims, o, nil) {
		if v.Status != conformance.Confirmed {
			return fmt.Errorf("claim %s is %s: %s", v.Claim, v.Status, v.Detail)
		}
		m.set(claimMetric(v.Claim), v.Elapsed.Seconds(), "s")
	}
	return nil
}
