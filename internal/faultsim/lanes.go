package faultsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"

	"xedsim/internal/dram"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// Bit-sliced trial evaluation: judge up to 64 Monte-Carlo trials per
// machine word.
//
// The observation behind the lane engine is that almost every non-empty
// trial is trivial to judge: it carries one or two visible fault records,
// and a single record whose weight fits the scheme's capacity can never
// fail a domain scheme on its own. The expensive part of the indexed
// Evaluator — per-scheme digestion, domain bucketing, concurrency probes —
// exists for the rare trial where two weighted records share a protection
// domain. The lane engine separates the populations with mask algebra:
//
//   - 64 trials are packed into the lanes of a LaneBatch, lane L ↔ bit L.
//     Sealing a lane (commit) digests each record into a compact laneRec
//     — weight-table signature, start time, channel/rank, silent flag
//     and the pre-mixed event-hash key, all config-free — so the judging
//     passes stream one dense array and touch the full FaultRecords only
//     in the rare scalar probe.
//   - Weights are pre-tabulated per signature and folded against each
//     scheme's capacity into a code (0 skip, 1 weighted, 2 overweight),
//     the schemes interleaved byte by byte in one uint64 table word: ONE
//     load yields every scheme's code, and a zero word dismisses the
//     record for all of them in a single branch. The word has
//     laneVecGroup (8) slots, so an engine judges at most eight schemes;
//     the paper's six fill six.
//   - A single-record lane never pairs, so its verdict per scheme is
//     alive unless the record is overweight — in which case it fails
//     deterministically at the record's start. The mask pass collapses
//     the overweight byte-mask into a per-lane slot mask with a
//     multiply-movemask and moves on without touching the record; the
//     probe pass transposes those per-lane masks back into per-scheme
//     lane masks. This is the NonECC/SECDED hot case: capacity 0 makes
//     every visible record overweight.
//   - Multi-record lanes additionally maintain, per scheme, a `seen`
//     lane mask per protection domain: two weighted records meeting in
//     one domain raise the lane in `pair` (word-wide AND/OR), and the
//     earliest-starting overweight record is tracked per lane.
//   - Only pair lanes are handed to the exact scalar probe (the indexed
//     Evaluator's evalDomainPrepared — bit-identity by construction),
//     prepared once per lane for all schemes that need it; a panic in
//     scheme code there voids only that lane. Overweight non-pair lanes
//     resolve inline from the tracked record; every other lane provably
//     survives: +Inf, FailNone.
//   - Tallying pops failure masks with bits.OnesCount64 and touches
//     per-year buckets only for set bits.
//
// The weight tables rely on the purity contract documented on
// buildWeightCodes; every scheme's domain is one of the three domainTag
// mappings, which the mask pass indexes directly. Every record lies inside
// the configured fleet — the campaign, the fleet and CaptureTrace generate
// it there and ReadTrace refuses any other — so its signature, channel and
// rank index the tables without a bounds test of their own.

// LaneWidth is the number of trials packed into one lane word.
const LaneWidth = 64

// laneRec is a record's commit-time digest: every field the mask and
// direct passes need, in 32 sequential bytes, all independent of the
// evaluator's Config. key folds the non-time terms of eventHash so a
// failing lane's hash is a finisher away (see laneEventHash).
type laneRec struct {
	start  float64
	key    uint64
	sig    int32
	ch, rk int32
	silent bool
}

// digestRecord builds a laneRec. It runs at packing time — in the
// campaign right after the generator writes the record, while its fields
// are cache-hot.
func digestRecord(r *FaultRecord) laneRec {
	return digestRecordSig(r, recSig(r))
}

// digestRecordSig is digestRecord with the signature already in hand: the
// batch pack loop computes it first for the survivor check and must not
// pay for it twice. Unlike digestRecord, this body fits the inliner.
func digestRecordSig(r *FaultRecord, sig int32) laneRec {
	return laneRec{
		start:  r.Start,
		key:    uint64(r.Channel)<<40 ^ uint64(r.Rank)<<32 ^ uint64(r.Chip)<<24 ^ uint64(r.Gran)<<16,
		sig:    sig,
		ch:     int32(r.Channel),
		rk:     int32(r.Rank),
		silent: r.Silent && r.Gran == dram.GranWord,
	}
}

// recSig digests an in-fleet record into its weight-table row: 3 boolean
// record flags per granularity, and the chip position picks the row block.
// It is written out by hand so the whole signature computation stays
// within the inliner's budget; the batch pack loop calls it on every
// single-record trial before deciding whether a full digest is even
// needed. TestDigestRecordMatchesSigOf pins the equivalence against the
// tests' sigOf.
func recSig(r *FaultRecord) int32 {
	s := int32(r.Gran) * 8
	if r.Transient {
		s |= 1
	}
	if r.Silent {
		s |= 2
	}
	if r.EscalatedByScaling {
		s |= 4
	}
	return int32(r.Chip)*int32(laneNSig) + s
}

// laneEventHash completes eventHash from a laneRec digest: the key holds
// every non-time term of the pre-mix, bit-identically to eventHash's own
// expression (TestLaneEventHashMatches pins this).
func laneEventHash(lr *laneRec) float64 {
	x := lr.key ^ math.Float64bits(lr.start)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// LaneBatch packs up to LaneWidth trials' fault records, back to back, for
// one LaneEvaluator.EvaluateBatch call. Lane L's records live at
// recs[offs[L]:offs[L+1]] with their digests at the same indices of lrs;
// trial[L] and state[L] carry the campaign bookkeeping (global trial
// index, the RNG state its generation started from — in a campaign, the
// chunk head) that a voided (panicking) lane needs to become a TrialError.
type LaneBatch struct {
	lanes int
	offs  [LaneWidth + 1]int32
	recs  []FaultRecord
	lrs   []laneRec
	trial [LaneWidth]int
	state [LaneWidth]simrand.State

	// Panic bookkeeping, populated by EvaluateBatch: voided bit L set
	// means lane L's evaluation panicked and its outcomes are void.
	voided   uint64
	panicVal [LaneWidth]string
	stack    [LaneWidth]string
}

// Reset empties the batch for reuse, keeping the buffers' capacity.
func (b *LaneBatch) Reset() {
	b.lanes = 0
	b.offs[0] = 0
	b.recs = b.recs[:0]
	b.lrs = b.lrs[:0]
	b.voided = 0
}

// Lanes returns the number of packed trials.
func (b *LaneBatch) Lanes() int { return b.lanes }

// Add packs one trial into the next free lane, copying its fault records,
// which must lie inside the judging evaluator's fleet. It panics when the
// batch is full; check Lanes() < LaneWidth first.
func (b *LaneBatch) Add(trial int, state simrand.State, faults []FaultRecord) {
	if b.lanes >= LaneWidth {
		panic("faultsim: LaneBatch overflow")
	}
	b.recs = append(b.recs, faults...)
	b.commit(trial, state)
}

// commit seals the records appended since the previous lane into a new
// lane, digesting each into its laneRec. The campaign engine generates
// directly into b.recs and commits; external callers go through Add.
func (b *LaneBatch) commit(trial int, state simrand.State) {
	b.digestFrom(int(b.offs[b.lanes]))
	b.commitDigested(trial, state)
}

// digestFrom extends lrs with digests for recs[n0:], leaving lrs and recs
// the same length.
func (b *LaneBatch) digestFrom(n0 int) {
	hi := len(b.recs)
	if cap(b.lrs) < hi {
		b.lrs = append(b.lrs[:len(b.lrs)], make([]laneRec, hi-len(b.lrs))...)
	}
	lrs := b.lrs[:hi]
	recs := b.recs[:hi]
	for ri := n0; ri < hi; ri++ {
		lrs[ri] = digestRecord(&recs[ri])
	}
	b.lrs = lrs
}

// commitDigested seals a lane whose records are already digested
// (len(lrs) == len(recs)); commit is digestFrom + commitDigested.
func (b *LaneBatch) commitDigested(trial int, state simrand.State) {
	b.trial[b.lanes] = trial
	b.state[b.lanes] = state
	b.lanes++
	b.offs[b.lanes] = int32(len(b.recs))
}

// LaneFaults returns lane L's packed records (aliasing the batch buffer).
func (b *LaneBatch) LaneFaults(L int) []FaultRecord {
	return b.recs[b.offs[L]:b.offs[L+1]]
}

// Voided returns the lane mask of trials whose evaluation panicked in the
// last EvaluateBatch; their outcomes are meaningless.
func (b *LaneBatch) Voided() uint64 { return b.voided }

// activeMask covers the packed lanes.
func (b *LaneBatch) activeMask() uint64 {
	if b.lanes == LaneWidth {
		return ^uint64(0)
	}
	return 1<<uint(b.lanes) - 1
}

// laneNSig is the number of weight-table entries per chip position: 3
// boolean record flags per granularity.
const laneNSig = int(dram.NumGranularities) * 8

// b2i compiles to a flag-free byte load: a bool is 0 or 1 in memory.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// laneVecGroup is the number of schemes whose weight codes share the one
// interleaved table word, and so the most schemes a LaneEvaluator judges.
const laneVecGroup = 8

// Weight-code byte values are 0, 1 or 2, so within a code word bit 1 of
// a byte marks "overweight" and bit 0 OR bit 1 marks "weighted".
const (
	laneOver = 0x0202020202020202
	laneWt   = 0x0101010101010101
	// laneGather collects the low bit of every byte into the top byte:
	// each byte holds at most one set bit, so the sums cannot carry.
	laneGather = 0x0102040810204080
)

// laneScheme is one scheme's bit-sliced state: the identity, domain and
// kind fields are fixed by the tables, the masks are per-batch scratch.
type laneScheme struct {
	ds      *domainScheme
	dom     domainTag // ds.dom, kept beside the masks for the mask pass
	domains int       // len(seen)

	seen    []uint64         // per-domain: lanes holding >= 1 weighted record
	pair    uint64           // lanes where two weighted records met in one domain
	over    uint64           // multi-record lanes holding an overweight record
	overS   uint64           // single-record lanes whose record is overweight
	need    uint64           // lanes routed to the scalar probe this batch
	overRec [LaneWidth]int32 // per multi lane: its earliest overweight record

	// hashFree marks schemes whose kind function ignores the event hash
	// (NonECC, XED); their direct-pass outcomes use constKind without
	// computing laneEventHash or making the indirect kind call.
	hashFree  bool
	constKind FailKind

	// noPair marks hashFree schemes whose weight table holds no partial
	// (code 1) entries: every weighted record is already overweight, so
	// two weighted records meeting in a domain cannot tell the scheme
	// anything a single one would not — the lane's verdict is its earliest
	// overweight record either way, and the constant kind ignores
	// concurrency. Such schemes skip the pair-triggered scalar probe
	// entirely; at stock rates this removes most probes (NonECC and XED
	// weight every visible record with zero capacity).
	noPair bool
}

// LaneEvaluator judges LaneBatches against the schemes of its Evaluator.
// It shares the Evaluator's config, scheme set and scalar probe scratch,
// so outcomes are bit-identical to Evaluator.EvaluateInto lane by lane —
// FuzzLaneVsIndexedEvaluator and the conformance differential hold it to
// that. Not safe for concurrent use; a campaign gives each worker its own
// over shared laneTables.
type LaneEvaluator struct {
	ev *Evaluator
	*laneTables
	ls []laneScheme // the tables' proto, with this evaluator's scratch

	// slots points into ls for the mask-pass inner loop: table-word byte
	// k ↔ slots[k] = &ls[k].
	slots [laneVecGroup]*laneScheme

	// overSlots[L] is the mask-pass scratch for single-record lanes: bit k
	// set means lane L's record is overweight for slots[k]. EvaluateBatch
	// transposes it into per-scheme overS lane masks. The record itself is
	// overRecL[L] (one per lane: it is the lane's only record, shared by
	// every scheme).
	overSlots [LaneWidth]uint8
	overRecL  [LaneWidth]int32

	// Per-scheme results of the last EvaluateBatch. fail[s] bit L set
	// means lane L failed scheme s, with the outcome in outs[s*64+L];
	// clear bits mean {+Inf, FailNone} (outs not written).
	fail []uint64
	outs []TrialOutcome
	// due/sdc split fail by outcome kind (a failing lane with some other
	// kind sets neither), so the campaign tallies DUEs and SDCs as
	// popcounts instead of walking outs per failing lane.
	due []uint64
	sdc []uint64

	// Instrumentation (nil-safe): batches judged, lanes probed scalar.
	batches *obs.Counter
	probes  *obs.Counter
	// stats counts the same work in plain fields for an owner that
	// publishes it in bulk (the campaign worker, at chunk merge).
	stats laneStats

	// Backing arrays of the ls[].seen and fail/due/sdc slices, kept so a
	// rebind reuses them.
	seenBuf, maskBuf []uint64
}

// laneStats is a LaneEvaluator's work since its owner last reset it.
type laneStats struct {
	batches, lanes, probes uint64
}

func (s *laneStats) add(o laneStats) {
	s.batches += o.batches
	s.lanes += o.lanes
	s.probes += o.probes
}

// laneTables is the part of a LaneEvaluator derived from the config and
// schemes alone: the weight-code tables and each scheme's fixed lane
// fields. It is read-only after construction, so one copy serves every
// worker of a campaign.
type laneTables struct {
	proto []laneScheme // fixed fields only; scratch fields zero
	// codes[sig] interleaves the schemes' weight codes, byte k belonging
	// to scheme k (slot k). See buildWeightCodes. ovBytes[sig] is the same
	// table pre-collapsed for single-record lanes: bit k set means the
	// signature is overweight for slot k (the movemask multiply hoisted
	// out of the mask pass), and zero means it is overweight for no
	// scheme at all (see singleSurvives).
	codes   []uint64
	ovBytes []uint8
}

// NewLaneEvaluator builds the bit-sliced engine over ev's config and
// schemes. The per-scheme weight tables are materialised here by probing
// each weight function across every (chip, signature) combination — see
// buildWeightCodes for the purity contract this relies on. It panics when
// ev judges more than eight schemes, the table word's slots; campaigns
// refuse such scheme sets up front.
func NewLaneEvaluator(ev *Evaluator) *LaneEvaluator {
	return newLaneEvaluator(ev, newLaneTables(ev.evalTables))
}

func newLaneTables(ev *evalTables) *laneTables {
	if len(ev.schemes) > laneVecGroup {
		panic(fmt.Sprintf("faultsim: a lane engine judges at most %d schemes, got %d", laneVecGroup, len(ev.schemes)))
	}
	cfg := ev.cfg
	ncodes := cfg.ChipsPerRank * laneNSig
	t := &laneTables{
		proto:   make([]laneScheme, 0, len(ev.schemes)),
		codes:   make([]uint64, ncodes),
		ovBytes: make([]uint8, ncodes),
	}
	var codes []uint8
	for k, ds := range ev.schemes {
		ls := laneScheme{ds: ds, dom: ds.dom, domains: ds.domainCount(cfg)}
		ls.constKind, ls.hashFree = hashFreeKind(ds.kind)
		partial := false
		codes = buildWeightCodes(cfg, ds, codes)
		for w, c := range codes {
			t.codes[w] |= uint64(c) << (8 * k)
			partial = partial || c == 1
		}
		ls.noPair = ls.hashFree && !partial
		t.proto = append(t.proto, ls)
	}
	for s, vec := range t.codes {
		t.ovBytes[s] = uint8((vec & laneOver >> 1 * laneGather) >> 56)
	}
	return t
}

// newLaneEvaluator builds a LaneEvaluator with its own batch scratch over
// shared tables; ev supplies the scalar probe and must share t's config
// and schemes.
func newLaneEvaluator(ev *Evaluator, t *laneTables) *LaneEvaluator {
	lv := &LaneEvaluator{}
	lv.bind(ev, t)
	return lv
}

// bind points lv at tables t and scalar probe ev, sizing the batch scratch
// for t and reusing whatever capacity lv already has.
func (lv *LaneEvaluator) bind(ev *Evaluator, t *laneTables) {
	n := len(t.proto)
	lv.ev, lv.laneTables = ev, t
	lv.ls = append(lv.ls[:0], t.proto...)
	domains := 0
	for i := range lv.ls {
		domains += lv.ls[i].domains
	}
	lv.seenBuf = grow(lv.seenBuf, domains)
	seen := lv.seenBuf
	for i := range lv.ls {
		d := lv.ls[i].domains
		lv.ls[i].seen, seen = seen[:d:d], seen[d:]
	}
	lv.slots = [laneVecGroup]*laneScheme{}
	for j := range lv.ls {
		lv.slots[j] = &lv.ls[j]
	}
	lv.outs = grow(lv.outs, n*LaneWidth)
	lv.maskBuf = grow(lv.maskBuf, 3*n)
	lv.fail, lv.due, lv.sdc = lv.maskBuf[:n:n], lv.maskBuf[n:2*n:2*n], lv.maskBuf[2*n:]
}

// singleSurvives reports whether a trial consisting of exactly one
// record with signature sig (as computed by recSig) provably survives
// every scheme, letting the batch pack loop drop the lane before it is
// digested, judged or tallied. The proof is the mask pass's own
// single-record argument run in reverse: a lone record can never pair,
// so a scheme fails the lane only if the record is overweight, and
// ovBytes[sig]==0 says it is overweight for none of them.
// Birthtime-scaling fatality fails every lane, so it disables the skip.
func (lv *LaneEvaluator) singleSurvives(sig int32) bool {
	return !lv.ev.scalingFatal && lv.ovBytes[sig] == 0
}

// buildWeightCodes tabulates ds.weight over every (chip position, fault
// signature) pair, already folded against the scheme's capacity.
//
// Purity contract: a domainScheme weight function must depend only on
// r.Chip, r.Gran, r.Transient, r.Silent and r.EscalatedByScaling (plus
// the Config). Every stock weight function does, and Evaluator.classLive
// already bakes the same assumption into generation-time class filtering;
// NewRankErasureScheme documents it for synthetic schemes. Fields outside
// the signature (times, addresses, channel/rank) must not influence the
// weight — the scalar probe would still be exact for such a scheme, but
// the mask pass could misclassify a lane as trivially alive.
//
// The table is written into codes, grown as needed, and returned.
func buildWeightCodes(cfg *Config, ds *domainScheme, codes []uint8) []uint8 {
	codes = grow(codes, cfg.ChipsPerRank*laneNSig)
	var r FaultRecord
	for chip := 0; chip < cfg.ChipsPerRank; chip++ {
		r.Chip = chip
		for g := dram.Granularity(0); g < dram.NumGranularities; g++ {
			r.Gran = g
			for flags := 0; flags < 8; flags++ {
				r.Transient = flags&1 != 0
				r.Silent = flags&2 != 0
				r.EscalatedByScaling = flags&4 != 0
				w := ds.weight(cfg, &r)
				idx := chip*laneNSig + int(g)*8 + flags
				switch {
				case w == 0:
					codes[idx] = 0
				case w > ds.capacity:
					codes[idx] = 2
				default:
					codes[idx] = 1
				}
			}
		}
	}
	return codes
}

// SetCounters attaches instrumentation: batches ticks per EvaluateBatch,
// probes per lane routed to the scalar path. nil detaches (the default).
func (lv *LaneEvaluator) SetCounters(batches, probes *obs.Counter) {
	lv.batches, lv.probes = batches, probes
}

func (lv *LaneEvaluator) addProbes(n int) {
	lv.stats.probes += uint64(n)
	lv.probes.Add(uint64(n))
}

// EvaluateBatch judges every packed lane under every scheme, leaving the
// results in the evaluator's fail masks / outcome slots (see the field
// docs) and the batch's voided mask. Lanes are independent: outcomes are
// bit-identical to calling Evaluator.EvaluateInto on each lane's records
// in isolation. A panic inside scheme code voids that lane only.
func (lv *LaneEvaluator) EvaluateBatch(b *LaneBatch) {
	ev := lv.ev
	lv.batches.Inc()
	lv.stats.batches++
	lv.stats.lanes += uint64(b.lanes)
	active := b.activeMask()

	if ev.scalingFatal {
		// Mirrors the reference probe's early-out: without On-Die ECC,
		// birthtime scaling faults defeat every scheme at t=0.
		for si := range lv.ls {
			lv.fail[si] = active
			lv.due[si], lv.sdc[si] = 0, active
			for L := 0; L < b.lanes; L++ {
				lv.outs[si*LaneWidth+L] = TrialOutcome{FailTime: 0, Kind: FailSDC}
			}
		}
		return
	}

	lv.maskPass(b)

	// Reset the per-scheme results, transpose the single-record overweight
	// scratch into per-scheme lane masks (scheme k is slot k, bit k of each
	// overSlots byte), and gather the scalar-probe set.
	var words [LaneWidth / 8]uint64
	var colMask uint64
	for w := range words {
		words[w] = binary.LittleEndian.Uint64(lv.overSlots[w*8:])
		colMask |= words[w]
	}
	var needAll uint64
	for si := range lv.ls {
		ls := &lv.ls[si]
		lv.fail[si] = 0
		lv.due[si], lv.sdc[si] = 0, 0
		ls.overS = 0
		// Slot columns no single-record lane marked (most schemes on a
		// typical batch) skip the movemask entirely.
		if colMask>>uint(si)&laneWt != 0 {
			for w, word := range words {
				if word != 0 {
					ls.overS |= ((word >> uint(si) & laneWt) * laneGather) >> 56 << (8 * w)
				}
			}
		}
		ls.need = 0
		if !ls.noPair {
			// noPair schemes resolve paired lanes in the direct pass:
			// their earliest overweight record is the exact verdict.
			ls.need = ls.pair & active
		}
		needAll |= ls.need
		lv.addProbes(bits.OnesCount64(ls.need))
	}

	// Probe pass: exact scalar evaluation for the lanes the masks could
	// not clear, prepared once per lane for every scheme that needs it.
	for m := needAll &^ b.voided; m != 0; m &= m - 1 {
		lv.probeLane(b, bits.TrailingZeros64(m))
	}

	// Direct pass: a lane in `over`/`overS` but not in `need` has no two
	// weighted records sharing a domain, so concurrency probes cannot
	// exceed capacity and its failure is exactly its earliest overweight
	// record — the reference probe's single-record branch, inline.
	for si := range lv.ls {
		ls := &lv.ls[si]
		outs := lv.outs[si*LaneWidth : (si+1)*LaneWidth]
		fm := lv.fail[si]
		multi := ls.over
		direct := (ls.overS | ls.over) & active &^ ls.need &^ b.voided
		fm |= direct
		if ls.hashFree {
			// Constant-kind schemes (NonECC, XED) never consult the event
			// hash, so the outcome is just the record's start time.
			ck := ls.constKind
			for m := direct; m != 0; m &= m - 1 {
				L := bits.TrailingZeros64(m)
				ri := lv.overRecL[L]
				if multi&(1<<uint(L)) != 0 {
					ri = ls.overRec[L]
				}
				outs[L] = TrialOutcome{FailTime: b.lrs[ri].start, Kind: ck}
			}
			switch ck {
			case FailDUE:
				lv.due[si] |= direct
			case FailSDC:
				lv.sdc[si] |= direct
			}
			lv.fail[si] = fm
			continue
		}
		kind := ls.ds.kind
		for m := direct; m != 0; m &= m - 1 {
			L := bits.TrailingZeros64(m)
			ri := lv.overRecL[L]
			if multi&(1<<uint(L)) != 0 {
				ri = ls.overRec[L]
			}
			lr := &b.lrs[ri]
			// laneEventHash is two multiplies and a subtract — cheaper to
			// recompute per scheme than to memoise (only SECDED hashes at
			// volume; the chipkill variants' direct masks are tiny).
			k := kind(b2i(lr.silent), 1, laneEventHash(lr))
			switch k {
			case FailDUE:
				lv.due[si] |= 1 << uint(L)
			case FailSDC:
				lv.sdc[si] |= 1 << uint(L)
			}
			outs[L] = TrialOutcome{FailTime: lr.start, Kind: k}
		}
		lv.fail[si] = fm
	}
}

// maskPass sweeps the batch's signatures once, classifying every lane for
// every scheme. Single-record lanes never pair, so their verdict needs
// only the signature: the overweight slot mask lands in overSlots via a
// multiply-movemask without touching the record. Multi-record lanes
// additionally run the per-domain seen/pair bookkeeping and track their
// earliest overweight record.
func (lv *LaneEvaluator) maskPass(b *LaneBatch) {
	rpc := int32(lv.ev.cfg.RanksPerChannel)
	for si := range lv.ls {
		ls := &lv.ls[si]
		clear(ls.seen)
		ls.pair, ls.over = 0, 0
	}
	clear(lv.overSlots[:])
	lrs, tab, ovb, sl := b.lrs, lv.codes, lv.ovBytes, &lv.slots
	var doms [3]int32 // the record's domain under each domainTag
	for L := 0; L < b.lanes; L++ {
		lo, hi := int(b.offs[L]), int(b.offs[L+1])
		if hi-lo == 1 {
			// Branchless: most lanes flip between overweight and not, so
			// storing an occasionally-zero mask beats a coin-toss branch.
			// overRecL is only read under a set overS bit, so the
			// unconditional write is safe.
			lv.overSlots[L] = ovb[lrs[lo].sig]
			lv.overRecL[L] = int32(lo)
			continue
		}
		bit := uint64(1) << uint(L)
		for ri := lo; ri < hi; ri++ {
			lr := &lrs[ri]
			vec := tab[lr.sig]
			if vec == 0 {
				continue // invisible to every scheme
			}
			doms = [3]int32{lr.ch*rpc + lr.rk, lr.ch, lr.ch / 2}
			for wt := (vec | vec>>1) & laneWt; wt != 0; wt &= wt - 1 {
				k := bits.TrailingZeros64(wt) >> 3
				ls := sl[k]
				dom := doms[ls.dom]
				m := ls.seen[dom]
				ls.pair |= m & bit
				ls.seen[dom] = m | bit
				if vec>>(uint(k)*8)&0xff == 2 {
					// Keep the earliest-starting overweight record; strict
					// < matches the reference probe's first-record-wins
					// tie-break.
					if ls.over&bit == 0 || lr.start < lrs[ls.overRec[L]].start {
						ls.overRec[L] = int32(ri)
					}
					ls.over |= bit
				}
			}
		}
	}
}

// probeLane judges lane L under every scheme whose need mask holds it,
// sharing one digest (Evaluator.prepare) across the schemes and containing
// any panic to the lane.
func (lv *LaneEvaluator) probeLane(b *LaneBatch, L int) {
	defer func() {
		if r := recover(); r != nil {
			b.voided |= 1 << uint(L)
			b.panicVal[L] = fmt.Sprint(r)
			b.stack[L] = string(debug.Stack())
		}
	}()
	lv.ev.prepare(b.LaneFaults(L))
	bit := uint64(1) << uint(L)
	for si := range lv.ls {
		ls := &lv.ls[si]
		if ls.need&bit == 0 {
			continue
		}
		out := lv.ev.evalDomainPrepared(ls.ds)
		if !math.IsInf(out.FailTime, 1) {
			lv.fail[si] |= bit
			switch out.Kind {
			case FailDUE:
				lv.due[si] |= bit
			case FailSDC:
				lv.sdc[si] |= bit
			}
			lv.outs[si*LaneWidth+L] = out
		}
	}
}

// AppendLaneOutcomes unpacks lane L's outcomes — one per scheme, in the
// Evaluator's scheme order — appending to out[:0]. It must not be called
// for a voided lane (check the batch's Voided mask).
func (lv *LaneEvaluator) AppendLaneOutcomes(L int, out []TrialOutcome) []TrialOutcome {
	out = out[:0]
	bit := uint64(1) << uint(L)
	for si := range lv.ls {
		if lv.fail[si]&bit != 0 {
			out = append(out, lv.outs[si*LaneWidth+L])
		} else {
			out = append(out, TrialOutcome{FailTime: math.Inf(1), Kind: FailNone})
		}
	}
	return out
}
