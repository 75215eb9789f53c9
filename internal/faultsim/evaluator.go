package faultsim

import (
	"math"

	"xedsim/internal/dram"
)

// TrialOutcome is one scheme's verdict on one trial: the earliest failure
// instant (+Inf for survival) and its DUE/SDC classification.
type TrialOutcome struct {
	FailTime float64
	Kind     FailKind
}

// faultEntry is one fault record pre-digested for one scheme: the
// scheme-dependent quantities (domain, weight, silent flag) are computed
// once instead of O(n) times inside the reference probe's inner loop.
type faultEntry struct {
	start, end float64
	rec        *FaultRecord
	weight     int
	idx        int32 // original record index: the probe's tie-break order
	chip       int32 // global chip id: (channel*RPC + rank)*CPR + chip
	domain     int32
	silent     bool
	overweight bool // weight > capacity: fails alone, never anchors
}

func entryLess(a, b *faultEntry) bool {
	if a.domain != b.domain {
		return a.domain < b.domain
	}
	if a.start != b.start {
		return a.start < b.start
	}
	return a.idx < b.idx
}

// prepRec is one fault record's scheme-INVARIANT digest: the quantities
// every scheme's pass 1 used to recompute per scheme (global chip id,
// silent flag, interval copy) are now computed once per trial and shared.
type prepRec struct {
	start, end float64
	rec        *FaultRecord
	idx        int32
	chip       int32
	silent     bool
}

// Evaluator judges fault streams against a fixed set of schemes with all
// scratch state reused across trials. It replaces the per-record
// map[chipKey]int + O(n²) rescan of domainScheme.FailTimeKind with a
// per-trial index: entries are bucketed by domain (sorted once per trial),
// and the concurrency probe walks each domain run with epoch-stamped
// fleet-sized per-chip arrays. Results are bit-identical to the reference
// probe — TestEvaluatorMatchesReferenceProbe holds it to that. Every record
// must lie inside cfg's fleet (see ReadTrace).
//
// An Evaluator is not safe for concurrent use; a campaign gives each
// worker its own over shared evalTables.
type Evaluator struct {
	*evalTables

	prep    []prepRec    // per-trial scheme-invariant digest, reused
	entries []faultEntry // per-trial per-scheme index, reused

	// Per-chip probe scratch, indexed by global chip id and validated by
	// epoch stamps so it never needs clearing between probes.
	epoch      uint32
	chipEpoch  []uint32
	chipWeight []int
	chipMinIdx []int32 // min original idx seen on the chip; -1 = anchor chip
	chipSilent []bool
}

// evalTables is the part of an Evaluator derived from the config and
// schemes alone. It is read-only after construction, so one copy serves
// every worker of a campaign.
type evalTables struct {
	cfg     *Config
	schemes []*domainScheme
	// scalingFatal mirrors the reference probe's early-out: without
	// On-Die ECC, birthtime scaling faults defeat every scheme at t=0.
	// It is also the only way an empty trial can fail.
	scalingFatal bool
}

// NewEvaluator prepares reusable evaluation state for cfg and schemes. The
// schemes' outcomes from EvaluateInto appear in the same order as the
// schemes argument.
func NewEvaluator(cfg *Config, schemes []Scheme) *Evaluator {
	return newEvaluator(newEvalTables(cfg, schemes))
}

func newEvalTables(cfg *Config, schemes []Scheme) *evalTables {
	t := &evalTables{cfg: cfg, scalingFatal: !cfg.OnDie && cfg.ScalingRate > 0}
	for _, s := range schemes {
		t.schemes = append(t.schemes, s.budget())
	}
	return t
}

// newEvaluator builds an Evaluator with its own probe scratch over shared
// tables.
func newEvaluator(t *evalTables) *Evaluator {
	e := &Evaluator{}
	e.bind(t)
	return e
}

// bind points e at tables t, sizing the probe scratch for t's fleet and
// reusing whatever capacity e already has.
func (e *Evaluator) bind(t *evalTables) {
	n := t.cfg.TotalChips()
	e.evalTables = t
	e.epoch = 0
	e.chipEpoch = grow(e.chipEpoch, n)
	clear(e.chipEpoch) // no stale stamp may match a fresh epoch
	e.chipWeight = grow(e.chipWeight, n)
	e.chipMinIdx = grow(e.chipMinIdx, n)
	e.chipSilent = grow(e.chipSilent, n)
}

// classLive reports whether a fault of the given class can ever carry
// nonzero weight under at least one evaluated scheme. When it cannot, the
// class is inert: weight-0 records are skipped by both the reference probe
// and the pre-index before any range or silent-count logic, so dropping
// the class from generation leaves every TrialOutcome distribution
// unchanged while shrinking the Poisson mean (bit faults under On-Die ECC
// are over half of Table I). The check sweeps the record fields the weight
// functions may consult — chip position and the silent/escalated flags —
// at their extreme values.
func (e *evalTables) classLive(cls ClassRate) bool {
	// Only flag values the generator can actually produce matter: Silent
	// is sampled for word faults under On-Die ECC, EscalatedByScaling for
	// bit faults when birthtime scaling is modelled.
	flags := [2]bool{false, true}
	silentVals, escVals := flags[:1], flags[:1]
	if cls.Gran == dram.GranWord && e.cfg.OnDie && e.cfg.SilentWordFraction > 0 {
		silentVals = flags[:]
	}
	if cls.Gran == dram.GranBit && e.cfg.OnDie && e.cfg.ScalingRate > 0 {
		escVals = flags[:]
	}
	var r FaultRecord
	r.Gran = cls.Gran
	r.Transient = cls.Transient
	for _, ds := range e.schemes {
		for _, chip := range [2]int{0, e.cfg.ChipsPerRank - 1} {
			r.Chip = chip
			for _, silent := range silentVals {
				r.Silent = silent
				for _, esc := range escVals {
					r.EscalatedByScaling = esc
					if ds.weight(e.cfg, &r) > 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// EvaluateInto judges one trial's fault stream under every scheme,
// appending one TrialOutcome per scheme to out[:0]. The returned slice is
// valid until the next call with the same backing array. It performs no
// heap allocations once out has capacity for all schemes.
func (e *Evaluator) EvaluateInto(faults []FaultRecord, out []TrialOutcome) []TrialOutcome {
	out = out[:0]
	if e.scalingFatal {
		for range e.schemes {
			out = append(out, TrialOutcome{FailTime: 0, Kind: FailSDC})
		}
		return out
	}
	// Scheme-invariant digestion happens once per trial; each scheme's
	// evalDomainPrepared pass then only adds its own weight and domain.
	e.prepare(faults)
	for _, ds := range e.schemes {
		out = append(out, e.evalDomainPrepared(ds))
	}
	return out
}

// prepare digests the trial's records into e.prep (see prepRec).
func (e *Evaluator) prepare(faults []FaultRecord) {
	prep := e.prep[:0]
	rpc, cpr := e.cfg.RanksPerChannel, e.cfg.ChipsPerRank
	for i := range faults {
		r := &faults[i]
		chip := int32((r.Channel*rpc+r.Rank)*cpr + r.Chip)
		prep = append(prep, prepRec{
			start: r.Start, end: r.End, rec: r,
			idx: int32(i), chip: chip, silent: isSilentRecord(r),
		})
	}
	e.prep = prep
}

// evalDomainPrepared evaluates one domainScheme over the trial e.prepare
// last digested. Semantics match domainScheme.FailTimeKind exactly: the
// winning event — an overweight record or a failing anchor probe — is the
// one with lexicographically minimal (time, original record index),
// reproducing the reference's record-order iteration with its strict
// `t < fail` replacement rule.
func (e *Evaluator) evalDomainPrepared(s *domainScheme) TrialOutcome {
	cfg := e.cfg
	bestTime := math.Inf(1)
	bestIdx := int32(math.MaxInt32)
	bestKind := FailNone

	// Pass 1: weigh each prepared record for this scheme. Overweight
	// records (weight > capacity) fail the scheme on their own at onset;
	// they are folded into the running best here and still join the index
	// because they contribute weight to other anchors' probes.
	entries := e.entries[:0]
	for i := range e.prep {
		p := &e.prep[i]
		w := s.weight(cfg, p.rec)
		if w == 0 {
			continue
		}
		if w > s.capacity {
			if p.start < bestTime || (p.start == bestTime && p.idx < bestIdx) {
				silent := 0
				if p.silent {
					silent = 1
				}
				bestTime, bestIdx = p.start, p.idx
				bestKind = s.kind(silent, 1, eventHash(p.rec))
			}
		}
		entries = append(entries, faultEntry{})
		en := &entries[len(entries)-1]
		en.start, en.end = p.start, p.end
		en.rec = p.rec
		en.idx = p.idx
		en.chip = p.chip
		en.domain = int32(s.domainOf(cfg, p.rec))
		en.weight = w
		en.silent = p.silent
		en.overweight = w > s.capacity
	}
	e.entries = entries
	if len(entries) <= 1 {
		// A single within-budget record cannot fail the scheme, and an
		// overweight one is already folded into best: no probe needed.
		return TrialOutcome{FailTime: bestTime, Kind: bestKind}
	}

	// Pass 2: bucket by domain. Trials carry a handful of visible
	// records, so an in-place insertion sort beats sort.Slice and its
	// closure allocation.
	for i := 1; i < len(entries); i++ {
		en := entries[i]
		j := i - 1
		for j >= 0 && entryLess(&en, &entries[j]) {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = en
	}

	// Pass 3: probe each domain run.
	for lo := 0; lo < len(entries); {
		hi := lo + 1
		for hi < len(entries) && entries[hi].domain == entries[lo].domain {
			hi++
		}
		e.probeRun(s, entries[lo:hi], &bestTime, &bestIdx, &bestKind)
		lo = hi
	}
	return TrialOutcome{FailTime: bestTime, Kind: bestKind}
}

// probeRun anchors a concurrency probe at each non-overweight entry of one
// domain's (start, idx)-sorted run: sum the per-chip MAX weights of entries
// active at the anchor instant, counting one silent flag per chip from that
// chip's minimal-original-index active record (the anchor chip keeps the
// anchor's own flag — sentinel minIdx -1). Any compound failure's onset
// coincides with some record's start, so probing starts is exhaustive.
func (e *Evaluator) probeRun(s *domainScheme, run []faultEntry, bestTime *float64, bestIdx *int32, bestKind *FailKind) {
	cfg := e.cfg
	for a := range run {
		an := &run[a]
		if an.overweight {
			continue
		}
		t := an.start
		// Anchors arrive in (start, idx) order: the first that cannot
		// beat the best event rules out every later one in this run.
		if t > *bestTime || (t == *bestTime && an.idx > *bestIdx) {
			break
		}
		e.epoch++
		epoch := e.epoch
		e.chipEpoch[an.chip] = epoch
		e.chipWeight[an.chip] = an.weight
		e.chipMinIdx[an.chip] = -1
		total := an.weight
		distinct := 1
		silent := 0
		if an.silent {
			silent = 1
		}
		for k := range run {
			o := &run[k]
			if o.start > t {
				break // sorted by start: nothing later is active yet
			}
			if k == a || o.end <= t {
				continue
			}
			if cfg.RequireAddressOverlap && !an.rec.Range.Intersects(&o.rec.Range) {
				continue
			}
			c := o.chip
			ow := o.weight
			if e.chipEpoch[c] != epoch {
				e.chipEpoch[c] = epoch
				e.chipWeight[c] = ow
				e.chipMinIdx[c] = o.idx
				e.chipSilent[c] = o.silent
				total += ow
				distinct++
				if o.silent {
					silent++
				}
				continue
			}
			if ow > e.chipWeight[c] {
				total += ow - e.chipWeight[c]
				e.chipWeight[c] = ow
			}
			if mi := e.chipMinIdx[c]; mi >= 0 && o.idx < mi {
				// An earlier-indexed record takes over the chip's
				// silent flag (the reference counts the first record
				// it encounters per chip, i.e. the lowest index).
				if o.silent != e.chipSilent[c] {
					if o.silent {
						silent++
					} else {
						silent--
					}
				}
				e.chipSilent[c] = o.silent
				e.chipMinIdx[c] = o.idx
			}
		}
		if total > s.capacity {
			*bestTime = t
			*bestIdx = an.idx
			*bestKind = s.kind(silent, distinct, eventHash(an.rec))
			break // later anchors in this run are lexicographically larger
		}
	}
}
