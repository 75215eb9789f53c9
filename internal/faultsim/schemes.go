package faultsim

import (
	"math"

	"xedsim/internal/dram"
)

// Scheme judges one trial's fault stream for one protection organisation.
// Every organisation the paper evaluates is a chip-erasure budget per
// protection domain, so the set is closed: only this package's
// constructors implement Scheme, and a new code joins as a weight function
// plus a domain (see NewRankErasureScheme).
type Scheme interface {
	// Name identifies the scheme in tables.
	Name() string
	// FailTimeKind is the reference probe: the earliest hour at which the
	// scheme's system fails (uncorrectable, mis-corrected or silent
	// error) and its DUE/SDC kind, or +Inf and FailNone if it survives
	// the whole lifetime.
	FailTimeKind(cfg *Config, faults []FaultRecord) (float64, FailKind)
	// budget returns the scheme's domain-budget description, the one
	// thing the judging engines read. It also seals the interface.
	budget() *domainScheme
}

// chipWeight is the correction budget one faulty chip consumes in an
// erasure-style scheme:
//
//	0 — invisible outside the chip (single-bit fault absorbed on-die) or
//	    correctable without consuming chip-level budget;
//	1 — a located chip error (catch-word, or RS-locatable);
//	2 — an *unlocated* chip error: erasure decoding spends two check
//	    symbols (2t+e ≤ R) on a chip whose damage produced no catch-word.
type weightFunc func(cfg *Config, r *FaultRecord) int

// domainTag names a protection domain: the set of chips whose concurrent
// damage draws on one correction budget.
type domainTag uint8

const (
	// domainRank: each rank protects itself (Non-ECC, SECDED, XED).
	domainRank domainTag = iota
	// domainChannel gangs both ranks of one channel's dual-rank DIMM — the
	// paper's x8 Chipkill organisation ("accessing two memory ranks (x8
	// devices) simultaneously", §I). The 18-chip gang is one DIMM, so a
	// multi-rank fault puts two concurrently faulty chips into a single
	// gang — fatal for single-symbol correction, survivable for the
	// two-erasure schemes. This asymmetry is one of the mechanisms behind
	// XED's 4x edge over Chipkill in Figure 7.
	domainChannel
	// domainChannelPair gangs the two DIMMs of channels {2i, 2i+1} — the
	// 36-chip Double-Chipkill organisation (four ranks across two
	// channels).
	domainChannelPair
)

// domainScheme is the shared evaluation engine: a protection domain is a
// set of chips, and the system fails the first instant the total weight of
// concurrently faulty distinct chips in any domain exceeds the capacity.
type domainScheme struct {
	name     string
	dom      domainTag
	capacity int
	weight   weightFunc
	kind     kindFunc
}

// Name implements Scheme.
func (s *domainScheme) Name() string { return s.name }

func (s *domainScheme) budget() *domainScheme { return s }

// domainOf returns the index of r's protection domain, in [0,
// domainCount(cfg)) for records inside the configured fleet.
func (s *domainScheme) domainOf(cfg *Config, r *FaultRecord) int {
	switch s.dom {
	case domainRank:
		return r.Channel*cfg.RanksPerChannel + r.Rank
	case domainChannel:
		return r.Channel
	default:
		return r.Channel / 2
	}
}

// domainCount returns how many protection domains cfg's fleet holds.
func (s *domainScheme) domainCount(cfg *Config) int {
	switch s.dom {
	case domainRank:
		return cfg.Channels * cfg.RanksPerChannel
	case domainChannel:
		return cfg.Channels
	default:
		return (cfg.Channels + 1) / 2
	}
}

// chipKey identifies one chip of the fleet in the reference probe's
// visited-set map. (Hoisted to package scope; a type declaration inside the
// probe loop obscured that it is loop-invariant.)
type chipKey struct{ ch, rank, chip int }

// FailTimeKind implements Scheme: the earliest failure instant plus its
// DUE/SDC classification.
//
// This is the REFERENCE implementation: a direct O(n²) transcription of the
// probe semantics, kept for clarity and as the oracle the tests hold the
// engines to. Campaigns judge through the lane engine (lanes.go), whose
// scalar probe is the pre-indexed Evaluator; both return bit-identical
// results without the per-record map allocation.
func (s *domainScheme) FailTimeKind(cfg *Config, faults []FaultRecord) (float64, FailKind) {
	// Without On-Die ECC, birthtime scaling faults saturate every
	// scheme immediately: at 10^-4 per bit, codewords with multi-bit
	// weak-cell damage are certain somewhere in a 4-channel fleet
	// (§II-B: this is why vendors add On-Die ECC at all).
	if !cfg.OnDie && cfg.ScalingRate > 0 {
		return 0, FailSDC
	}
	fail := math.Inf(1)
	kind := FailNone
	for i := range faults {
		r := &faults[i]
		w := s.weight(cfg, r)
		if w == 0 {
			continue
		}
		if w > s.capacity {
			// This fault alone defeats the scheme.
			if r.Start < fail {
				fail = r.Start
				silent := 0
				if isSilentRecord(r) {
					silent = 1
				}
				kind = s.kind(silent, 1, eventHash(r))
			}
			continue
		}
		// Anchor a concurrency probe at r.Start: sum the weights of
		// distinct faulty chips active at that instant within r's
		// domain. Any compound failure's onset coincides with some
		// record's start, so probing starts is exhaustive.
		t := r.Start
		if t >= fail {
			continue
		}
		dom := s.domainOf(cfg, r)
		total := w
		silent := 0
		if isSilentRecord(r) {
			silent = 1
		}
		seen := map[chipKey]int{{r.Channel, r.Rank, r.Chip}: w}
		for j := range faults {
			o := &faults[j]
			if i == j || o.Start > t || o.End <= t {
				continue
			}
			if s.domainOf(cfg, o) != dom {
				continue
			}
			ow := s.weight(cfg, o)
			if ow == 0 {
				continue
			}
			if cfg.RequireAddressOverlap && !r.Range.Intersects(&o.Range) {
				continue
			}
			key := chipKey{o.Channel, o.Rank, o.Chip}
			if prev, ok := seen[key]; ok {
				if ow > prev {
					total += ow - prev
					seen[key] = ow
				}
				continue
			}
			seen[key] = ow
			total += ow
			if isSilentRecord(o) {
				silent++
			}
		}
		if total > s.capacity {
			fail = t
			kind = s.kind(silent, len(seen), eventHash(r))
		}
	}
	return fail, kind
}

// --- weight functions ---

// visibleWeight is the baseline: single-bit faults are absorbed on-die
// (weight 0) unless a birthtime scaling fault shares the word and the
// 2-bit combination escapes on-die correction — then the damage is visible
// but always *detected* (weight 1). Everything word-sized and bigger is a
// chip-level error (weight 1).
func visibleWeight(cfg *Config, r *FaultRecord) int {
	if r.Gran == dram.GranBit {
		if !cfg.OnDie {
			return 1
		}
		if r.EscalatedByScaling {
			return 1
		}
		return 0
	}
	return 1
}

// secdedWeight: DIMM-level SECDED corrects one bit per beat, so bit faults
// stay weight 0 even without On-Die ECC; anything larger defeats it.
func secdedWeight(cfg *Config, r *FaultRecord) int {
	if r.Gran == dram.GranBit {
		if cfg.OnDie && r.EscalatedByScaling {
			return 1
		}
		if !cfg.OnDie {
			return 0 // corrected by the DIMM-level code itself
		}
		return 0
	}
	return 1
}

// xedWeight: catch-words locate every on-die-detected fault (weight 1).
// A *silent* word fault is only recoverable through diagnosis: Intra-Line
// diagnosis convicts permanent damage, and Inter-Line convicts anything
// spanning multiple lines, so the sole unlocatable case is a silent
// TRANSIENT word fault — the §VIII DUE — which exceeds any budget.
func xedWeight(cfg *Config, r *FaultRecord) int {
	w := visibleWeight(cfg, r)
	if w == 0 {
		return 0
	}
	if r.Silent && r.Transient && r.Gran == dram.GranWord {
		return 2 // unlocated and undiagnosable: 2 > capacity 1
	}
	return 1
}

// xedChipkillWeight: erasure decoding with R=2 check symbols. A silent
// word fault produces no catch-word, so locating it spends both symbols
// (2t ≤ R); it weighs 2.
func xedChipkillWeight(cfg *Config, r *FaultRecord) int {
	w := visibleWeight(cfg, r)
	if w == 0 {
		return 0
	}
	if r.Silent && r.Gran == dram.GranWord {
		return 2
	}
	return 1
}

// --- the six evaluated organisations ---

// nonECCWeight: the ordinary DIMM has no ninth chip, so faults that the
// shared generator lands on the last chip position simply do not exist in
// this organisation.
func nonECCWeight(cfg *Config, r *FaultRecord) int {
	if r.Chip >= cfg.ChipsPerRank-1 {
		return 0
	}
	return visibleWeight(cfg, r)
}

// NewNonECC is the 8-chip DIMM of Figure 1: no DIMM-level redundancy at
// all; any visible fault is silent data corruption.
func NewNonECC() Scheme {
	return &domainScheme{name: "NonECC", dom: domainRank, capacity: 0, weight: nonECCWeight, kind: nonECCKind}
}

// NewSECDED is the conventional 9-chip ECC-DIMM (§II-D1).
func NewSECDED() Scheme {
	return &domainScheme{name: "ECC-DIMM (SECDED)", dom: domainRank, capacity: 0, weight: secdedWeight, kind: secdedKind}
}

// NewXED is the paper's proposal on a 9-chip ECC-DIMM: one erasure per
// rank via catch-words + RAID-3 parity (§V), diagnosis for silent
// permanent faults (§VI), serial-mode for scaling faults (§VII).
func NewXED() Scheme {
	return &domainScheme{name: "XED", dom: domainRank, capacity: 1, weight: xedWeight, kind: xedKind}
}

// NewChipkill is commercial SSC-DSD Chipkill over 18 lockstepped chips:
// corrects one chip, detects two (detection without correction is still a
// failed system).
func NewChipkill() Scheme {
	return &domainScheme{name: "Chipkill", dom: domainChannel, capacity: 1, weight: visibleWeight, kind: chipkillKind}
}

// NewDoubleChipkill corrects any two chips among 36 (§IX).
func NewDoubleChipkill() Scheme {
	return &domainScheme{name: "Double-Chipkill", dom: domainChannelPair, capacity: 2, weight: visibleWeight, kind: dblChipkillKind}
}

// NewXEDChipkill is XED over Single-Chipkill hardware: catch-words turn
// the two check symbols into two erasure corrections (§IX-A).
func NewXEDChipkill() Scheme {
	return &domainScheme{name: "XED+Chipkill", dom: domainChannel, capacity: 2, weight: xedChipkillWeight, kind: xedChipkillKind}
}

// VisibleWeight is the baseline per-record chip weight shared by the
// Chipkill-family organisations: 0 for faults absorbed on-die, 1 for
// anything visible outside the chip. Exported so synthetic schemes (see
// NewRankErasureScheme) can derive off-menu weight profiles from the same
// visibility rules the stock schemes use.
func VisibleWeight(cfg *Config, r *FaultRecord) int { return visibleWeight(cfg, r) }

// NewRankErasureScheme constructs a synthetic rank-domain erasure scheme:
// the system fails the first instant the summed weights of concurrently
// faulty distinct chips in any rank exceed capacity, and every failure is
// a DUE. The paper's organisations are fixed instances of this same
// engine; the constructor exists for conformance and differential
// harnesses that need off-menu weight profiles — e.g. weights straddling
// the Evaluator's int8 fast-path envelope, or a deliberately sabotaged XED
// whose refutation a statistical acceptance test must demonstrate.
func NewRankErasureScheme(name string, capacity int, weight func(cfg *Config, r *FaultRecord) int) Scheme {
	return &domainScheme{name: name, dom: domainRank, capacity: capacity, weight: weight, kind: xedKind}
}
