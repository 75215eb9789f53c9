package faultsim

import "xedsim/internal/simrand"

// TrialSource draws whole-lifetime fault-record streams for one simulated
// system outside the campaign engine. It is the seam the fleet simulator
// (internal/fleet) ages its DIMMs through: each DIMM's runtime faults are
// one unfiltered trial of the single-DIMM Config, drawn at the Table I FIT
// rates, so the fleet's per-DIMM fault statistics are — by construction —
// the same ones the Monte-Carlo campaigns evaluate.
//
// Unlike the campaign's internal generator, a TrialSource never filters
// fault classes by scheme liveness (telemetry needs the on-die-corrected
// single-bit stream the schemes ignore) and always draws symbolic address
// ranges (retirement policies need the damaged row).
type TrialSource struct {
	g *generator
}

// NewTrialSource validates cfg and builds a source over its full FIT
// table. The source is not safe for concurrent use; campaigns give each
// worker its own.
func NewTrialSource(cfg *Config) (*TrialSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := newFilteredGenerator(cfg, nil)
	g.withRanges = true
	return &TrialSource{g: g}, nil
}

// Mean returns the expected fault-arrival count per trial (Poisson mean
// over the whole fleet and lifetime of cfg). Multi-rank events count once.
func (s *TrialSource) Mean() float64 { return s.g.totalMean }

// Trial appends one system's lifetime fault records to buf and returns it.
// The draw sequence is a pure function of rng's state.
func (s *TrialSource) Trial(rng *simrand.Source, buf []FaultRecord) []FaultRecord {
	return s.g.Trial(rng, buf)
}

// NextNonEmpty reports how many consecutive trials drew zero faults and
// then generates the next non-empty trial, appending its records to buf.
// Callers account the skipped trials wholesale (a zero-fault system has no
// telemetry and cannot fail); the decomposition is exact — see
// generator.nextNonEmptyAppend.
func (s *TrialSource) NextNonEmpty(rng *simrand.Source, buf []FaultRecord) (skipped int, out []FaultRecord) {
	return s.g.nextNonEmptyAppend(rng, buf[:0])
}

// ResetEvents rewinds the multi-rank EventID counter. Chunked callers
// reset at every chunk boundary so a chunk's records are a pure function
// of the chunk's substream, exactly like the campaign engine.
func (s *TrialSource) ResetEvents() { s.g.resetEvents() }
