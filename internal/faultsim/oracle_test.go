package faultsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"xedsim/internal/simrand"
)

// The campaign judges every trial through one path: batch-planned chunks,
// survivor pre-judging, lane packing, mask judging and popcount tallies.
// The helpers here recompute a campaign the slow, obviously-right way —
// every trial materialised and judged on its own by a scalar oracle — so
// tests can hold that path to its oracles trial stream for trial stream.

// Trial appends this trial's fault records to buf and returns it. The
// returned slice is valid until the next call with the same buf. Under an
// aging profile, candidates are drawn at the envelope rate and thinned to
// the instantaneous multiplier, which samples the non-homogeneous Poisson
// process exactly. This one-trial-at-a-time draw is the law-level oracle
// the batch plan is tested against; every production path plans instead.
func (g *generator) Trial(rng *simrand.Source, buf []FaultRecord) []FaultRecord {
	buf = buf[:0]
	aging := g.cfg.Aging
	if !aging.enabled() {
		n := rng.Poisson(g.totalMean)
		for i := 0; i < n; i++ {
			cls := g.sampleClass(rng)
			buf = g.emit(rng, buf, g.classes[cls])
		}
		return buf
	}
	peak := aging.Peak()
	n := rng.Poisson(g.totalMean * peak)
	for i := 0; i < n; i++ {
		// Candidate onset; thin against the bathtub.
		x := rng.Float64()
		if !rng.Bernoulli(aging.Multiplier(x) / peak) {
			continue
		}
		cls := g.sampleClass(rng)
		buf = g.emitAt(rng, buf, g.classes[cls], x*g.cfg.LifetimeHours)
	}
	return buf
}

func (g *generator) sampleClass(rng *simrand.Source) int {
	return g.classSamp.Lookup(rng.Float64())
}

func (g *generator) emit(rng *simrand.Source, buf []FaultRecord, cls ClassRate) []FaultRecord {
	return g.emitAt(rng, buf, cls, rng.Float64()*g.cfg.LifetimeHours)
}

// emitAt emits one fault with a fixed onset time: it draws the record's
// geometry and hands off to emitPlaced. The batch generator (batchgen.go)
// reaches emitPlaced directly with geometry read from its chunk columns.
func (g *generator) emitAt(rng *simrand.Source, buf []FaultRecord, cls ClassRate, start float64) []FaultRecord {
	ch := g.chSamp.Sample(rng)
	rank := g.rankSamp.Sample(rng)
	chip := g.chipSamp.Sample(rng)
	return g.emitPlaced(rng, buf, cls, start, ch, rank, chip)
}

// referenceInto judges the trial with every scheme's reference probe
// (O(n²) FailTimeKind) instead of the pre-index — the oracle the campaign
// path is tested against.
func (e *Evaluator) referenceInto(faults []FaultRecord, out []TrialOutcome) []TrialOutcome {
	out = out[:0]
	for _, ds := range e.schemes {
		t, k := ds.FailTimeKind(e.cfg, faults)
		out = append(out, TrialOutcome{FailTime: t, Kind: k})
	}
	return out
}

// judgeFunc is a scalar oracle: Evaluator.EvaluateInto or referenceInto.
type judgeFunc func(ev *Evaluator, faults []FaultRecord, out []TrialOutcome) []TrialOutcome

var oracleJudges = map[string]judgeFunc{
	"EvaluateInto":  (*Evaluator).EvaluateInto,
	"referenceInto": (*Evaluator).referenceInto,
}

// oracle tallies trials judged one at a time into campaign accumulators.
type oracle struct {
	c     *campaign
	ev    *Evaluator
	gen   *generator
	judge judgeFunc
	outs  []TrialOutcome
}

func newOracle(t testing.TB, cfg Config, schemes []Scheme, opts CampaignOptions, judge judgeFunc) *oracle {
	t.Helper()
	c, err := newCampaign(cfg, schemes, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(&c.cfg, schemes)
	return &oracle{c: c, ev: ev, gen: newRunGenerator(&c.cfg, ev.evalTables), judge: judge}
}

// judgeTrial judges one trial (te carries its identity and faults),
// voiding it into the trial errors if the judge panics.
func (o *oracle) judgeTrial(te TrialError) {
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		o.outs = o.judge(o.ev, te.Faults, o.outs)
	}()
	if panicked != nil {
		te.PanicValue = fmt.Sprint(panicked)
		te.Faults = append([]FaultRecord(nil), te.Faults...)
		o.c.acc.errs = append(o.c.acc.errs, te)
		return
	}
	o.c.acc.trials++
	for s, out := range o.outs {
		if math.IsInf(out.FailTime, 1) {
			continue
		}
		acc := &o.c.acc.results[s]
		acc.Failures++
		switch out.Kind {
		case FailDUE:
			acc.DUEs++
		case FailSDC:
			acc.SDCs++
		}
		for y := min(int(out.FailTime*invHoursPerYear), o.c.years-1); y < o.c.years; y++ {
			acc.ByYear[y]++
		}
	}
}

func (o *oracle) report() *Report {
	return o.c.reportLocked()
}

// oracleCampaign recomputes the campaign RunCampaign(cfg, schemes, opts)
// runs: every chunk planned from its substream exactly as the campaign
// plans it, every trial of the chunk — empty or not — emitted and judged
// by judge, voided trials recorded with the replay fields the campaign
// records.
func oracleCampaign(t testing.TB, cfg Config, schemes []Scheme, opts CampaignOptions, judge judgeFunc) *Report {
	t.Helper()
	o := newOracle(t, cfg, schemes, opts, judge)
	arr := newArrivalSamplers(o.gen.genTables)
	var p batchPlan
	var rng simrand.Source
	for c := 0; c < o.c.run.Chunks(); c++ {
		lo, hi := o.c.run.Bounds(c)
		rng.SeedStream(o.c.opts.Seed, uint64(c))
		o.gen.resetEvents()
		head := rng.State()
		p.build(o.gen.genTables, &arr, &rng, hi-lo)
		next := 0
		for tr := lo; tr < hi; tr++ {
			te := TrialError{Trial: tr, Chunk: c, RNGState: head, ChunkTrials: hi - lo, PlanIndex: -1}
			if next < p.emitted() && lo+int(p.trialPos[next]) == tr {
				te.Faults, te.PlanIndex = p.emitTrial(o.gen, &rng, next, nil), next
				next++
			}
			o.judgeTrial(te)
		}
	}
	return o.report()
}

// scalarCampaign is oracleCampaign over the scalar generator: the same
// chunk substreams drawn one trial at a time by generator.Trial. Its
// streams differ from the campaign's, so it agrees in law only.
func scalarCampaign(t testing.TB, cfg Config, schemes []Scheme, opts CampaignOptions) *Report {
	t.Helper()
	o := newOracle(t, cfg, schemes, opts, (*Evaluator).EvaluateInto)
	var rng simrand.Source
	var buf []FaultRecord
	for c := 0; c < o.c.run.Chunks(); c++ {
		lo, hi := o.c.run.Bounds(c)
		rng.SeedStream(o.c.opts.Seed, uint64(c))
		o.gen.resetEvents()
		for tr := lo; tr < hi; tr++ {
			buf = o.gen.Trial(&rng, buf)
			o.judgeTrial(TrialError{Trial: tr, Chunk: c, Faults: buf})
		}
	}
	return o.report()
}

// sameCampaign fails unless got and want tally identically and void the
// same trials with the same replay records (stacks aside).
func sameCampaign(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if got.Trials != want.Trials || !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("%s: %d trials\n%+v\nwant %d trials\n%+v", what, got.Trials, got.Results, want.Trials, want.Results)
	}
	if len(got.TrialErrors) != len(want.TrialErrors) {
		t.Fatalf("%s: %d voided trials, want %d", what, len(got.TrialErrors), len(want.TrialErrors))
	}
	for i := range got.TrialErrors {
		g, w := got.TrialErrors[i], want.TrialErrors[i]
		g.Stack, w.Stack = "", ""
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: voided trial %d\n%+v\nwant\n%+v", what, i, g, w)
		}
	}
}
