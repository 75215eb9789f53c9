package faultsim

import "xedsim/internal/simrand"

// TrialSource draws whole-lifetime fault-record streams for simulated
// systems outside the campaign engine, planned exactly as campaign chunks
// are (batchgen.go). It is the seam the fleet simulator (internal/fleet)
// ages its DIMMs through: each DIMM's runtime faults are one unfiltered
// trial of the single-DIMM Config, drawn at the Table I FIT rates, so the
// fleet's per-DIMM fault statistics are — by construction — the same ones
// the Monte-Carlo campaigns evaluate.
//
// Unlike the campaign's generator, a TrialSource never filters fault
// classes by scheme liveness (telemetry needs the on-die-corrected
// single-bit stream the schemes ignore) and always draws symbolic address
// ranges. No retirement policy reads a record's Range; only a DIMM's
// regenerated history (fleet.History, xedfleet -dimm) shows it.
//
// A source iterates over one batch plan at a time: Plan plans a run of
// trials and NextNonEmpty emits its non-empty ones in order. While a plan
// is pending its columns are borrowed from the campaigns' chunk pool.
type TrialSource struct {
	gen  generator // shares its genTables with every fork
	arr  *arrivalSamplers
	buf  *chunkBuffers // the pending plan's; nil when none is pending
	n    int           // trials planned
	next int           // plan index of the next non-empty trial
	at   int           // trials of the plan already reported
}

// NewTrialSource validates cfg and builds a source over its full FIT
// table. A source is not safe for concurrent use; goroutines drawing from
// one config each draw through their own Fork.
func NewTrialSource(cfg *Config) (*TrialSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := newGenerator(cfg)
	arr := newArrivalSamplers(g.genTables)
	return &TrialSource{gen: *g, arr: &arr}, nil
}

// Fork returns a source over s's read-only tables with no plan pending,
// so a run builds the tables once however many workers draw from them.
func (s *TrialSource) Fork() *TrialSource {
	return &TrialSource{gen: generator{genTables: s.gen.genTables}, arr: s.arr}
}

// Mean returns the expected fault-arrival count per trial (Poisson mean
// over the whole fleet and lifetime of cfg). Multi-rank events count once.
func (s *TrialSource) Mean() float64 { return s.gen.totalMean }

// Plan plans n trials from rng, which should sit at the head of a
// substream, and rewinds the multi-rank EventIDs, so the records the plan
// emits are a pure function of that substream. Any plan still pending is
// dropped.
func (s *TrialSource) Plan(rng *simrand.Source, n int) {
	if s.buf == nil {
		s.buf = chunkPool.Get().(*chunkBuffers)
	}
	s.gen.resetEvents()
	s.buf.plan.build(s.gen.genTables, s.arr, rng, n)
	s.n, s.next, s.at = n, 0, 0
}

// NextNonEmpty reports how many consecutive planned trials drew zero faults
// and then emits the next non-empty one, its records replacing buf's
// contents; conditional per-record draws come from rng, which must be the
// source Plan drew from. Once the plan's non-empty trials run out it
// returns the plan's trailing empty count with no records, and the next
// call plans DefaultChunkSize trials from rng. Callers account the skipped
// trials wholesale: a zero-fault system has no telemetry and cannot fail.
func (s *TrialSource) NextNonEmpty(rng *simrand.Source, buf []FaultRecord) (skipped int, out []FaultRecord) {
	if s.buf == nil {
		s.Plan(rng, DefaultChunkSize)
	}
	p := &s.buf.plan
	if s.next == p.emitted() {
		skipped = s.n - s.at
		chunkPool.Put(s.buf)
		s.buf = nil
		return skipped, buf[:0]
	}
	pos := int(p.trialPos[s.next])
	out = p.emitTrial(&s.gen, rng, s.next, buf[:0])
	skipped, s.at = pos-s.at, pos+1
	s.next++
	return skipped, out
}
