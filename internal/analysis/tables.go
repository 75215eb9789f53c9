package analysis

import "math"

// --- Table III: likelihood of multiple catch-words per access ---

// MultiCatchWord models §VII-A: every chip whose accessed on-die word
// holds at least one birthtime scaling fault answers with a catch-word, so
// the chance of *multiple* catch-words in one access is a binomial tail
// over the chips of the rank.
type MultiCatchWord struct {
	// ScalingRatePerBit is the weak-cell rate (Table III sweeps 10^-4,
	// 10^-5, 10^-6).
	ScalingRatePerBit float64
	// Chips per access answering with data (9 on the XED ECC-DIMM).
	Chips int
	// BitsPerWord is the on-die codeword size whose damage triggers a
	// catch-word on this access: 72 cells (64 data + 8 check) for the
	// full-word convention. The paper's Table III values correspond to
	// a per-beat (8-bit) chunk; both are exposed for EXPERIMENTS.md.
	BitsPerWord int
}

// PerChipProbability is the chance one chip's accessed word is faulty.
func (m MultiCatchWord) PerChipProbability() float64 {
	return -math.Expm1(float64(m.BitsPerWord) * math.Log1p(-m.ScalingRatePerBit))
}

// Probability returns P(two or more catch-words in one access).
func (m MultiCatchWord) Probability() float64 {
	q := m.PerChipProbability()
	n := float64(m.Chips)
	// 1 - (1-q)^n - n·q·(1-q)^(n-1)
	none := math.Exp(n * math.Log1p(-q))
	one := n * q * math.Exp((n-1)*math.Log1p(-q))
	return 1 - none - one
}

// SerialModeInterval returns the expected number of accesses between
// serial-mode episodes (the reciprocal of Probability); the paper quotes
// "once every 200K accesses" at a 10^-4 rate.
func (m MultiCatchWord) SerialModeInterval() float64 {
	p := m.Probability()
	if p <= 0 {
		return math.Inf(1)
	}
	return 1 / p
}

// TableIIIRow evaluates one scaling rate with the paper's system (9 chips).
func TableIIIRow(rate float64, bitsPerWord int) MultiCatchWord {
	return MultiCatchWord{ScalingRatePerBit: rate, Chips: 9, BitsPerWord: bitsPerWord}
}

// --- Table IV: SDC and DUE rates of XED ---

// XEDVulnerability derives Table IV's closed forms from the FIT rates.
type XEDVulnerability struct {
	// TransientWordFIT is the per-chip transient word-fault rate
	// (1.4 FIT in Table I).
	TransientWordFIT float64
	// LargeGranFIT is the per-chip rate of row+column+bank faults
	// feeding Inter-Line diagnosis.
	LargeGranFIT float64
	// ChipsPerRank, LifetimeHours describe the protection domain the
	// paper normalises to (one 9-chip rank over 7 years).
	ChipsPerRank  int
	LifetimeHours float64
	// SilentFraction is the on-die miss rate for multi-bit word damage
	// (0.8%, Table II).
	SilentFraction float64
	// ScalingRatePerBit, ColsPerRow, Threshold parameterise the
	// Inter-Line misidentification SDC: an innocent chip is convicted
	// if >= Threshold of the row's ColsPerRow lines carry scaling
	// catch-words.
	ScalingRatePerBit float64
	ColsPerRow        int
	Threshold         int
}

// DefaultXEDVulnerability matches §VIII's assumptions.
func DefaultXEDVulnerability() XEDVulnerability {
	return XEDVulnerability{
		TransientWordFIT:  1.4,
		LargeGranFIT:      5.6 + 8.2 + 10 + 1.4, // perm column+row+bank+multibank
		ChipsPerRank:      9,
		LifetimeHours:     7 * 8766,
		SilentFraction:    0.008,
		ScalingRatePerBit: 1e-4,
		ColsPerRow:        128,
		Threshold:         13, // 10% of 128, rounded up
	}
}

// TransientWordProbability is the chance a rank sees a transient word
// fault over the lifetime — the paper's 7.7x10^-4.
func (v XEDVulnerability) TransientWordProbability() float64 {
	return v.TransientWordFIT * 1e-9 * v.LifetimeHours * float64(v.ChipsPerRank)
}

// DUEProbability is Table IV's word-failure row: a transient word fault
// whose damage the on-die code misses defeats both diagnoses — 6.1x10^-6.
func (v XEDVulnerability) DUEProbability() float64 {
	return v.TransientWordProbability() * v.SilentFraction
}

// MisidentificationProbability is the chance Inter-Line diagnosis convicts
// an innocent chip: >= Threshold of the row's lines carry scaling-fault
// catch-words for that chip (binomial tail; ~10^-12 at a 10^-4 rate).
func (v XEDVulnerability) MisidentificationProbability() float64 {
	q := -math.Expm1(72 * math.Log1p(-v.ScalingRatePerBit))
	return binomialTail(v.ColsPerRow, q, v.Threshold)
}

// SDCProbability is Table IV's row/column/bank row: diagnosis runs after a
// large-granularity fault whose accessed line was silent, and convicts the
// wrong chip — ~1.4x10^-13 over 7 years.
func (v XEDVulnerability) SDCProbability() float64 {
	diagnoses := v.LargeGranFIT * 1e-9 * v.LifetimeHours * float64(v.ChipsPerRank)
	// Any of the other chips may be wrongly convicted.
	wrongChips := float64(v.ChipsPerRank - 1)
	return diagnoses * v.MisidentificationProbability() * wrongChips
}

// binomialTail returns P(X >= k) for X ~ Binomial(n, p), computed in log
// space so tails like 1e-12 keep full precision.
func binomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p <= 0 {
		return 0
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	sum := 0.0
	for i := k; i <= n; i++ {
		lg := logChoose(n, i) + float64(i)*logP + float64(n-i)*logQ
		sum += math.Exp(lg)
	}
	return sum
}

func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// MultiChipLossProbability approximates Table IV's final row analytically:
// the probability that two chips of one rank hold concurrently active
// visible faults during the lifetime, summed over the fleet's ranks. It
// cross-checks the Monte-Carlo simulator's XED estimate.
//
// permFIT/transFIT are per-chip visible (word-or-larger) FIT rates;
// scrubHours bounds transient persistence.
func MultiChipLossProbability(permFIT, transFIT float64, chips, ranks int, lifetimeHours, scrubHours float64) float64 {
	lp := permFIT * 1e-9 * lifetimeHours  // per-chip permanent faults
	lt := transFIT * 1e-9 * lifetimeHours // per-chip transient faults
	pairs := float64(chips*(chips-1)) / 2
	// permanent x permanent: any two eventually overlap.
	pp := lp * lp
	// transient x permanent: the transient must start while the
	// permanent is live — on average half the lifetime — or the
	// permanent must arrive within the transient's scrub window.
	tp := 2 * lt * lp * (0.5 + scrubHours/lifetimeHours)
	// transient x transient: both must share a scrub window.
	tt := lt * lt * (2 * scrubHours / lifetimeHours)
	return pairs * (pp + tp + tt) * float64(ranks)
}
