package faultsim

import "xedsim/internal/simrand"

// Batched trial generation: how every campaign, the fleet simulator
// (through TrialSource) and CaptureTrace draw their trials.
//
// The scalar generator (generator.Trial, a test oracle in oracle_test.go)
// interleaves every trial's draws: one Poisson count, then per record a
// class draw, an onset draw and three bounded geometry draws, each paying
// full per-call sampler overhead. The batch plan restructures a whole
// chunk into structure-of-arrays form:
//
//  1. One arrival pass plans the chunk: TruncPoisson.NextPositiveRuns
//     emits (zero-run, count) pairs, so the ~75% of trials that draw no
//     faults cost no uniforms at all (the geometric skip covers them).
//  2. Record columns are sampled array-at-a-time — class uniforms and
//     onsets via Source.FillFloat64 with the xoshiro state in registers,
//     channel/rank/chip via IntnSampler.Fill over one bulk word column —
//     instead of record-at-a-time.
//  3. A pack loop walks the plan in trial order and materialises records
//     through generator.emitPlaced, which also keeps the rare conditional
//     draws (address ranges, silent words, scaling escalation, multi-rank
//     expansion) on the scalar route, in the scalar order.
//
// Determinism contract: for a fixed (cfg, seed, chunk index) the plan is a
// pure function of the chunk substream, so results are bit-identical
// across worker counts, checkpoint/resume patterns and the service/local
// split. Plan streams consume uniforms in a different order from the
// scalar generator's, so the two are not bit-identical; they are exactly
// distributed alike instead:
//
//   - The arrival decomposition (geometric zero-run + zero-truncated count)
//     is an exact identity for i.i.d. Poisson counts; stopping at the
//     chunk boundary without drawing a count is exact because
//     P(zero-run >= remaining) = q^remaining is precisely the probability
//     that every remaining trial is empty.
//   - Poisson splitting makes the records of a chunk i.i.d. across
//     (class, onset, geometry), so sampling those fields column-major
//     instead of row-major leaves the joint law unchanged.
//   - Each column primitive is distribution-exact against its scalar
//     counterpart (see internal/simrand/batch.go); the only intentional
//     law-preserving deviations are that the aging path always draws its
//     thinning uniform (the scalar Bernoulli skips the draw when the
//     acceptance probability is exactly 1) and that a rank is drawn for
//     multi-rank (GranChip) records whose expansion then overwrites it.
//
// The scalar generator stays as the oracle: FuzzBatchGenVsScalar holds the
// plan to a scalar-primitive reference of its draw order, and law-level
// tests and the 1000-config conformance differential hold both to the same
// distribution.

// arrivalSamplers are the plan's arrival-run samplers. Like genTables they
// are read-only once built, so a campaign builds them once for all its
// workers.
type arrivalSamplers struct {
	trunc   simrand.TruncPoisson // arrival runs at totalMean (flat profile)
	truncPk simrand.TruncPoisson // candidate runs at totalMean * aging peak
}

func newArrivalSamplers(g *genTables) arrivalSamplers {
	var a arrivalSamplers
	if g.totalMean > 0 {
		a.trunc = simrand.NewTruncPoisson(g.totalMean)
		if g.cfg.Aging.enabled() {
			a.truncPk = simrand.NewTruncPoisson(g.totalMean * g.cfg.Aging.Peak())
		}
	}
	return a
}

// batchPlan is one chunk's plan. trialPos[i] is the chunk-relative index of
// the i-th emitted trial (>= 1 record after aging thinning); its records
// occupy the column range [recEnd[i-1], recEnd[i]). Plan memory is
// O(records per chunk), ~40B per expected record, reused across chunks.
type batchPlan struct {
	runs     []simrand.PosRun
	trialPos []int32
	recEnd   []int32
	class    []int32   // index into the generator's classes
	u01      []float64 // onset as a lifetime fraction in [0, 1)
	ch       []int32
	rk       []int32
	chip     []int32

	// Scratch columns.
	words []uint64  // bulk words for IntnSampler.Fill
	f64   []float64 // class uniforms; aging thinning uniforms
	x     []float64 // aging candidate onsets
}

// grow returns s resized to n. It reallocates only when n exceeds the
// capacity, and then at least doubles it, so a column settles at its
// high-water mark after a few chunks instead of reallocating whenever a
// chunk draws more records than any before.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// build plans n trials from rng, which must sit at the head of the chunk's
// substream. The draw order is the canonical batch sequence (the
// differential fuzz reference reproduces it with scalar primitives):
// arrival runs; [aging: candidate-onset column, then thinning column];
// class-uniform column; [flat: onset column]; channel, rank, chip word
// columns with rejection redraws in ascending index order. Conditional
// per-record draws happen later, inside emitTrial.
func (p *batchPlan) build(g *genTables, a *arrivalSamplers, rng *simrand.Source, n int) {
	p.runs = p.runs[:0]
	p.trialPos = p.trialPos[:0]
	p.recEnd = p.recEnd[:0]
	if g.totalMean <= 0 {
		return
	}
	aging := g.cfg.Aging
	total := int32(0)
	if !aging.enabled() {
		p.runs = a.trunc.NextPositiveRuns(rng, n, p.runs)
		pos := int32(-1)
		for _, r := range p.runs {
			pos += r.Skip + 1
			total += r.Count
			p.trialPos = append(p.trialPos, pos)
			p.recEnd = append(p.recEnd, total)
		}
		p.fillColumns(g, rng, int(total), true)
		return
	}
	// Aging: candidates arrive at the envelope (peak) rate and are thinned
	// to the instantaneous multiplier — the same exact non-homogeneous
	// sampling the scalar path uses, with the candidate onsets and
	// acceptance uniforms drawn as columns. Thinning can empty a trial, so
	// emitted trials are the runs with >= 1 accepted candidate.
	p.runs = a.truncPk.NextPositiveRuns(rng, n, p.runs)
	cand := 0
	for _, r := range p.runs {
		cand += int(r.Count)
	}
	p.x = grow(p.x, cand)
	p.f64 = grow(p.f64, cand)
	rng.FillFloat64(p.x)
	rng.FillFloat64(p.f64)
	p.u01 = grow(p.u01, cand)[:0]
	peak := aging.Peak()
	ci := 0
	pos := int32(-1)
	for _, r := range p.runs {
		pos += r.Skip + 1
		kept := int32(0)
		for j := int32(0); j < r.Count; j++ {
			if x := p.x[ci]; p.f64[ci] < aging.Multiplier(x)/peak {
				p.u01 = append(p.u01, x)
				kept++
			}
			ci++
		}
		if kept > 0 {
			total += kept
			p.trialPos = append(p.trialPos, pos)
			p.recEnd = append(p.recEnd, total)
		}
	}
	p.fillColumns(g, rng, int(total), false)
}

// fillColumns samples the per-record columns for R records. The onset
// column is only drawn on the flat path; under aging the accepted candidate
// onsets are already in u01.
func (p *batchPlan) fillColumns(g *genTables, rng *simrand.Source, R int, withOnsets bool) {
	p.f64 = grow(p.f64, R)
	rng.FillFloat64(p.f64)
	p.class = grow(p.class, R)
	for i, u := range p.f64 {
		p.class[i] = int32(g.classSamp.Lookup(u))
	}
	if withOnsets {
		p.u01 = grow(p.u01, R)
		rng.FillFloat64(p.u01)
	}
	p.words = grow(p.words, R)
	p.ch = grow(p.ch, R)
	p.rk = grow(p.rk, R)
	p.chip = grow(p.chip, R)
	g.chSamp.Fill(rng, p.ch, p.words)
	// Multi-rank (GranChip) records consume a rank draw here like every
	// other record; emitPlaced's expansion overwrites it. Unconditional
	// columns keep the plan branch-free and the law is unchanged (the
	// draw is independent of everything it feeds).
	g.rankSamp.Fill(rng, p.rk, p.words)
	g.chipSamp.Fill(rng, p.chip, p.words)
}

// emitted returns the number of planned non-empty trials in the chunk.
func (p *batchPlan) emitted() int { return len(p.trialPos) }

// emitTrial packs emitted trial i's records onto buf, drawing any
// conditional per-record randomness (ranges, silent words, escalation) from
// rng in the scalar order. Trials must be emitted in plan order exactly
// once per chunk: the conditional draws and g's EventID counter advance
// with each call.
func (p *batchPlan) emitTrial(g *generator, rng *simrand.Source, i int, buf []FaultRecord) []FaultRecord {
	lo := int32(0)
	if i > 0 {
		lo = p.recEnd[i-1]
	}
	lifetime := g.cfg.LifetimeHours
	for r := lo; r < p.recEnd[i]; r++ {
		buf = g.emitPlaced(rng, buf, g.classes[p.class[r]], p.u01[r]*lifetime,
			int(p.ch[r]), int(p.rk[r]), int(p.chip[r]))
	}
	return buf
}
