package faultsim

import (
	"math"

	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

// FaultRecord is one runtime fault instance in one chip of the fleet.
type FaultRecord struct {
	// Channel, Rank, Chip locate the afflicted device.
	Channel, Rank, Chip int
	// Start and End bound the interval (in hours) during which the
	// fault corrupts reads: permanent faults run to the lifetime's end,
	// transient faults until the next patrol scrub.
	Start, End float64
	// Gran and Transient classify the fault. GranChip records a
	// multi-rank event's footprint in this chip.
	Gran      dram.Granularity
	Transient bool
	// Silent is true when the on-die code misses the fault's damage in
	// the accessed word (sampled at SilentWordFraction for word faults).
	Silent bool
	// EscalatedByScaling marks a single-bit runtime fault that landed
	// in a word already holding a birthtime weak cell: the 2-bit
	// combination exceeds on-die *correction* (it is still detected),
	// so the fault becomes visible outside the chip (§VII, footnote 2).
	EscalatedByScaling bool
	// Range is the symbolic address range, used when the precise
	// address-overlap criterion is enabled. The Monte-Carlo fast path
	// leaves it zero unless Config.RequireAddressOverlap is set; traces
	// and TrialSource always populate it.
	Range dram.Fault
	// EventID groups the per-chip records of one multi-rank event.
	EventID uint64
}

// generator draws the fault stream for one trial. Its tables are shared;
// the multi-rank EventID counter is the only state a draw mutates, so
// goroutines drawing from one configuration each hold their own generator
// over the same genTables.
type generator struct {
	*genTables
	nextEvent uint64
}

// genTables holds a generator's per-config constants (class means, the
// class alias table, Lemire thresholds, the scaling-escalation
// probability), computed once rather than per record — the trial loop runs
// millions of times per campaign — and read-only after construction.
type genTables struct {
	cfg *Config
	// classes holds the fault classes this generator draws from —
	// cfg.FITs, minus any classes a scheme-aware caller proved inert —
	// and classMeans[i] is the expected number of class-i faults across
	// the whole fleet and lifetime.
	classes    []ClassRate
	classMeans []float64
	totalMean  float64

	// withRanges controls whether emitted records carry their symbolic
	// address Range. The Monte-Carlo schemes only read Range under the
	// precise address-overlap criterion, so Run skips the (RNG-heavy)
	// range draws otherwise. newGenerator always sets it.
	withRanges bool

	// Precomputed samplers and constants.
	classSamp    simrand.WeightedSampler
	chSamp       simrand.IntnSampler
	rankSamp     simrand.IntnSampler
	chipSamp     simrand.IntnSampler
	bankSamp     simrand.IntnSampler
	rowSamp      simrand.IntnSampler
	colSamp      simrand.IntnSampler
	bitSamp      simrand.IntnSampler
	escalateProb float64 // P(struck word already holds a weak cell)
}

func newGenerator(cfg *Config) *generator {
	return newFilteredGenerator(cfg, nil)
}

// resetEvents rewinds the EventID counter. The campaign engine calls it at
// every chunk boundary so a chunk's records are a pure function of the
// chunk's substream: EventIDs only ever distinguish records *within* one
// trial (eventHash ignores them), so restarting the counter is
// outcome-neutral.
func (g *generator) resetEvents() {
	g.nextEvent = 0
}

// newFilteredGenerator builds a generator over the classes that pass
// `live` (nil keeps everything). Dropping classes rescales the Poisson
// trial-count mean accordingly, so the surviving classes keep their exact
// per-class arrival statistics.
func newFilteredGenerator(cfg *Config, live func(ClassRate) bool) *generator {
	g := &generator{genTables: &genTables{cfg: cfg, withRanges: true}}
	chips := float64(cfg.TotalChips())
	for _, cls := range cfg.FITs {
		if live != nil && !live(cls) {
			continue
		}
		perChip := float64(cls.Rate) * 1e-9 * cfg.LifetimeHours
		mean := perChip * chips
		if cls.Gran == dram.GranChip {
			// Multi-rank faults live in circuitry shared by the
			// ranks of one DIMM (register/buffer, shared I/O), so
			// the natural event unit is the DIMM: one event per
			// DIMM at the Table I rate, expanded into one chip
			// record per rank.
			mean = float64(cls.Rate) * 1e-9 * cfg.LifetimeHours * float64(cfg.Channels)
		}
		g.classes = append(g.classes, cls)
		g.classMeans = append(g.classMeans, mean)
		g.totalMean += mean
	}
	if g.totalMean > 0 {
		g.classSamp = simrand.NewWeightedSampler(g.classMeans)
	}
	g.chSamp = simrand.NewIntnSampler(cfg.Channels)
	g.rankSamp = simrand.NewIntnSampler(cfg.RanksPerChannel)
	g.chipSamp = simrand.NewIntnSampler(cfg.ChipsPerRank)
	g.bankSamp = simrand.NewIntnSampler(cfg.Geom.Banks)
	g.rowSamp = simrand.NewIntnSampler(cfg.Geom.RowsPerBank)
	g.colSamp = simrand.NewIntnSampler(cfg.Geom.ColsPerRow)
	g.bitSamp = simrand.NewIntnSampler(72)
	if cfg.OnDie && cfg.ScalingRate > 0 {
		// Probability the struck word already holds a weak cell among
		// its other 71 bits.
		g.escalateProb = 1 - math.Pow(1-cfg.ScalingRate, 71)
	}
	return g
}

// newRunGenerator builds the Monte-Carlo campaign generator: identical
// outcome statistics under ev's schemes, but classes no scheme can react
// to are not generated at all, and address ranges are only drawn when a
// scheme will actually read them.
func newRunGenerator(cfg *Config, ev *evalTables) *generator {
	g := newFilteredGenerator(cfg, ev.classLive)
	g.withRanges = cfg.RequireAddressOverlap
	return g
}

// emitPlaced emits one fault whose onset and geometry are already drawn.
// Records are constructed in place in buf's grown tail; the FaultRecord
// struct is large enough (~30% of generation time went to copying it) that
// building a local and appending shows up in profiles. The remaining
// conditional draws (address range, silent-word, scaling escalation) stay
// scalar for both the scalar generator and the batch plan, in this order.
func (g *generator) emitPlaced(rng *simrand.Source, buf []FaultRecord, cls ClassRate, start float64, ch, rank, chip int) []FaultRecord {
	cfg := g.cfg
	end := cfg.LifetimeHours
	if cls.Transient {
		// The next patrol scrub clears a transient upset.
		scrub := math.Ceil(start/cfg.ScrubIntervalHours) * cfg.ScrubIntervalHours
		end = math.Min(scrub, cfg.LifetimeHours)
		if end <= start {
			end = math.Min(start+cfg.ScrubIntervalHours, cfg.LifetimeHours)
		}
	}
	buf = append(buf, FaultRecord{})
	r := &buf[len(buf)-1]
	r.Channel = ch
	r.Rank = rank
	r.Chip = chip
	r.Start, r.End = start, end
	r.Gran, r.Transient = cls.Gran, cls.Transient
	if g.withRanges {
		r.Range = g.randomRange(rng, cls)
	}
	if cls.Gran == dram.GranWord && cfg.OnDie {
		r.Silent = rng.Bernoulli(cfg.SilentWordFraction)
	}
	if cls.Gran == dram.GranBit && g.escalateProb > 0 {
		r.EscalatedByScaling = rng.Bernoulli(g.escalateProb)
	}
	if cls.Gran == dram.GranChip {
		// Multi-rank event: same chip position in every rank of the
		// DIMM.
		g.nextEvent++
		r.EventID = g.nextEvent
		r.Rank = 0
		for rk := 1; rk < cfg.RanksPerChannel; rk++ {
			buf = append(buf, buf[len(buf)-rk])
			buf[len(buf)-1].Rank = rk
		}
		return buf
	}
	return buf
}

// randomRange draws the symbolic address range for the fault.
func (g *generator) randomRange(rng *simrand.Source, cls ClassRate) dram.Fault {
	geom := g.cfg.Geom
	seed := rng.Uint64()
	switch cls.Gran {
	case dram.GranBit:
		a := dram.WordAddr{Bank: g.bankSamp.Sample(rng), Row: g.rowSamp.Sample(rng), Col: g.colSamp.Sample(rng)}
		return dram.NewBitFault(a, g.bitSamp.Sample(rng), cls.Transient)
	case dram.GranWord:
		a := dram.WordAddr{Bank: g.bankSamp.Sample(rng), Row: g.rowSamp.Sample(rng), Col: g.colSamp.Sample(rng)}
		mask := rng.Uint64()
		if mask == 0 {
			mask = 3
		}
		return dram.NewWordFault(a, mask, uint8(rng.Uint64()), cls.Transient)
	case dram.GranColumn:
		return dram.NewColumnFault(g.bankSamp.Sample(rng), g.colSamp.Sample(rng), cls.Transient, seed)
	case dram.GranRow:
		return dram.NewRowFault(g.bankSamp.Sample(rng), g.rowSamp.Sample(rng), cls.Transient, seed)
	case dram.GranBank:
		return dram.NewBankFault(g.bankSamp.Sample(rng), cls.Transient, seed)
	case dram.GranMultiBank:
		// Two to all banks of the chip.
		n := 2 + rng.Intn(geom.Banks-1)
		var mask uint64
		for i := 0; i < n; i++ {
			mask |= 1 << uint(g.bankSamp.Sample(rng))
		}
		return dram.NewMultiBankFault(mask, cls.Transient, seed)
	default: // GranChip / multi-rank
		return dram.NewChipFault(cls.Transient, seed)
	}
}
