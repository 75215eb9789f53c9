package analysis

import (
	"math"
	"testing"

	"xedsim/internal/faultsim"
	"xedsim/internal/simrand"
)

// SimulateCollisions validates the geometric model empirically at a small
// catch-word width: it draws `writes` random values against a random
// catch-word and returns the observed collision count. Used by tests to
// confirm the analytic curve before extrapolating to 64 bits.
func SimulateCollisions(bits int, writes int, seed uint64) int {
	rng := simrand.New(seed)
	mask := uint64(1)<<uint(bits) - 1
	cw := rng.Uint64() & mask
	hits := 0
	for i := 0; i < writes; i++ {
		if rng.Uint64()&mask == cw {
			hits++
		}
	}
	return hits
}

// PairLossProbability generalises MultiChipLossProbability to any gang
// size — the analytic cross-check for the Chipkill curve (two concurrent
// faulty chips among `chips`, summed over `gangs` protection gangs).
func PairLossProbability(permFIT, transFIT float64, chips, gangs int, lifetimeHours, scrubHours float64) float64 {
	return MultiChipLossProbability(permFIT, transFIT, chips, gangs, lifetimeHours, scrubHours)
}

// TripleLossProbability approximates the two-erasure schemes' failure
// mode: three concurrently active visible faults in distinct chips of one
// gang. Only the dominant permanent^3 and permanent^2 x transient terms
// are kept; the Monte-Carlo simulator carries the full model.
func TripleLossProbability(permFIT, transFIT float64, chips, gangs int, lifetimeHours, scrubHours float64) float64 {
	lp := permFIT * 1e-9 * lifetimeHours
	lt := transFIT * 1e-9 * lifetimeHours
	triples := float64(chips*(chips-1)*(chips-2)) / 6
	// permanent^3: the latest of three always sees the other two.
	ppp := lp * lp * lp
	// 2 permanents + 1 transient: the transient must arrive after both
	// (~1/3 of orderings) or a permanent lands in its scrub window.
	ppt := 3 * lp * lp * lt * (1.0/3 + 2*scrubHours/lifetimeHours)
	return triples * (ppp + ppt) * float64(gangs)
}

// MultiRankLossProbability is the Chipkill-specific extra term: a
// multi-rank event puts two concurrent faulty chips into the DIMM-wide
// gang, defeating single-symbol correction outright.
func MultiRankLossProbability(multiRankFIT float64, dimms int, lifetimeHours float64) float64 {
	return multiRankFIT * 1e-9 * lifetimeHours * float64(dimms)
}

func TestCollisionPerWriteProbability(t *testing.T) {
	if got := X8Default().PerWriteProbability(); got != math.Exp2(-64) {
		t.Fatalf("x8 per-write p = %v", got)
	}
	if got := X4Default().PerWriteProbability(); got != math.Exp2(-32) {
		t.Fatalf("x4 per-write p = %v", got)
	}
}

func TestCollisionMeanTimes(t *testing.T) {
	// 64-bit catch-word at one write per 4ns: 2^64 * 4e-9 s ≈ 2339 y.
	x8 := X8Default().MeanTimeBetweenCollisionsYears()
	if x8 < 2000 || x8 > 2700 {
		t.Fatalf("x8 MTTC = %v years, want ≈2339", x8)
	}
	// 32-bit: 2^32 * 4e-9 s ≈ 17 seconds — hence §IX-A's observation
	// that x4 systems must regenerate catch-words frequently.
	x4 := X4Default().MeanTimeBetweenCollisionsYears() * SecondsPerYear
	if x4 < 15 || x4 > 20 {
		t.Fatalf("x4 MTTC = %v seconds, want ≈17.2", x4)
	}
	// The paper-calibrated model reproduces the quoted 3.2M years.
	p := PaperCalibratedX8().MeanTimeBetweenCollisionsYears()
	if p < 3.1e6 || p > 3.3e6 {
		t.Fatalf("paper-calibrated MTTC = %v years, want 3.2e6", p)
	}
}

func TestCollisionCurveMonotoneAndExponential(t *testing.T) {
	m := X8Default()
	years := []float64{1, 2, 4, 8, 16}
	curve := m.Curve(years)
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("curve not increasing at %v years", years[i])
		}
	}
	// In the small-p regime the curve is linear in time: P(2y) ≈ 2·P(1y).
	if r := curve[1] / curve[0]; r < 1.99 || r > 2.01 {
		t.Fatalf("P(2y)/P(1y) = %v, want ≈2", r)
	}
}

func TestCollisionModelMatchesSimulation(t *testing.T) {
	// Validate the geometric model at 16-bit width: 300k writes against
	// p = 2^-16 expect ~4.6 collisions.
	m := CollisionModel{CatchWordBits: 16, WriteIntervalSec: 1}
	writes := 300_000
	var hits int
	for seed := uint64(0); seed < 20; seed++ {
		hits += SimulateCollisions(16, writes, seed)
	}
	want := float64(20*writes) * m.PerWriteProbability()
	if got := float64(hits); got < want*0.7 || got > want*1.3 {
		t.Fatalf("simulated collisions %v, want ≈%v", got, want)
	}
}

func TestTableIIIScalesQuadratically(t *testing.T) {
	// P(multiple catch-words) ∝ rate² — each decade of scaling-fault
	// rate buys two decades of serial-mode rarity (Table III's pattern:
	// 2e-5, 2e-7, 2e-9 in the paper's per-beat convention).
	p4 := TableIIIRow(1e-4, 72).Probability()
	p5 := TableIIIRow(1e-5, 72).Probability()
	p6 := TableIIIRow(1e-6, 72).Probability()
	if r := p4 / p5; r < 90 || r > 110 {
		t.Fatalf("p(1e-4)/p(1e-5) = %v, want ≈100", r)
	}
	if r := p5 / p6; r < 90 || r > 110 {
		t.Fatalf("p(1e-5)/p(1e-6) = %v, want ≈100", r)
	}
	// Order of magnitude at 1e-4, full-word convention: ~1.8e-3; the
	// paper's per-beat convention gives ~2e-5.
	if p4 < 5e-4 || p4 > 5e-3 {
		t.Fatalf("p4 = %v outside expected band", p4)
	}
	beat := TableIIIRow(1e-4, 8).Probability()
	if beat < 5e-6 || beat > 5e-5 {
		t.Fatalf("per-beat p4 = %v, want ≈2e-5 (paper Table III)", beat)
	}
}

func TestSerialModeInterval(t *testing.T) {
	m := TableIIIRow(1e-4, 8)
	iv := m.SerialModeInterval()
	// Paper: "once every 200K accesses" at the high rate.
	if iv < 20_000 || iv > 500_000 {
		t.Fatalf("serial-mode interval = %v accesses, want ~1e5", iv)
	}
	if !math.IsInf(TableIIIRow(0, 72).SerialModeInterval(), 1) {
		t.Fatal("zero rate should mean never")
	}
}

func TestTableIVDUE(t *testing.T) {
	v := DefaultXEDVulnerability()
	// Paper: transient word fault probability 7.7e-4 per rank / 7 years.
	tw := v.TransientWordProbability()
	if tw < 7e-4 || tw > 8.5e-4 {
		t.Fatalf("transient word probability = %v, want ≈7.7e-4", tw)
	}
	// Paper: DUE 6.1e-6.
	due := v.DUEProbability()
	if due < 5.5e-6 || due > 7e-6 {
		t.Fatalf("DUE = %v, want ≈6.1e-6", due)
	}
}

func TestTableIVSDC(t *testing.T) {
	v := DefaultXEDVulnerability()
	mis := v.MisidentificationProbability()
	// Paper: ~1e-12 chance that 10% of a row's lines carry scaling
	// catch-words.
	if mis > 1e-10 || mis < 1e-16 {
		t.Fatalf("misidentification probability = %v, want ≈1e-12", mis)
	}
	sdc := v.SDCProbability()
	if sdc > 1e-11 || sdc <= 0 {
		t.Fatalf("SDC = %v, want ≲1.4e-13", sdc)
	}
	// SDC must be many orders below DUE, which itself is far below the
	// multi-chip data-loss rate (Table IV's ordering).
	if sdc >= v.DUEProbability() {
		t.Fatal("SDC should be far below DUE")
	}
}

func TestBinomialTail(t *testing.T) {
	// P(X >= 1) = 1-(1-p)^n exactly.
	n, p := 50, 0.01
	want := -math.Expm1(float64(n) * math.Log1p(-p))
	if got := binomialTail(n, p, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tail(>=1) = %v, want %v", got, want)
	}
	if got := binomialTail(10, 0.5, 0); got != 1 {
		t.Fatalf("tail(>=0) = %v, want 1", got)
	}
	if got := binomialTail(10, 0.5, 11); got != 0 {
		t.Fatalf("tail(>11) = %v, want 0", got)
	}
	// Symmetric case: P(X>=6 | n=10,p=0.5) + P(X>=5) = 1 + P(X=5).
	a := binomialTail(10, 0.5, 6)
	b := binomialTail(10, 0.5, 5)
	pmf5 := math.Exp(logChoose(10, 5) + 5*math.Log(0.5) + 5*math.Log(0.5))
	if math.Abs(a+pmf5-b) > 1e-12 {
		t.Fatal("binomial tail inconsistent with pmf")
	}
}

func TestMultiChipLossMatchesMonteCarlo(t *testing.T) {
	// The closed form should land within ~35% of the simulator's XED
	// failure probability (it ignores the silent-word DUE term, which
	// is orders of magnitude smaller).
	cfg := faultsim.DefaultConfig()
	rep, err := faultsim.Run(cfg, []faultsim.Scheme{faultsim.NewXED()}, 400_000, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.Results[0].Probability()

	permFIT := 0.3 + 5.6 + 8.2 + 10 + 1.4 + 2.8*0 // visible permanent, chip-level classes handled below
	// Visible permanent classes: word 0.3, column 5.6, row 8.2, bank 10,
	// multibank 1.4, plus the per-DIMM multi-rank events appearing as
	// chip faults (2.8 FIT per DIMM spread across 18 chips ≈ 0.16).
	permFIT += 2.8 / 18 * 1
	transFIT := 1.4 + 1.4 + 0.2 + 0.8 + 0.3 + 0.9/18
	analytic := MultiChipLossProbability(permFIT, transFIT, 9, 8, cfg.LifetimeHours, cfg.ScrubIntervalHours)
	if ratio := analytic / mc; ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("analytic %v vs monte-carlo %v (ratio %v)", analytic, mc, ratio)
	}
}

func BenchmarkCollisionCurve(b *testing.B) {
	m := X8Default()
	years := []float64{1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < b.N; i++ {
		m.Curve(years)
	}
}

func TestChipkillClosedFormMatchesMonteCarlo(t *testing.T) {
	cfg := faultsim.DefaultConfig()
	rep, err := faultsim.Run(cfg, []faultsim.Scheme{faultsim.NewChipkill()}, 600_000, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.Results[0].Probability()
	permFIT := 0.3 + 5.6 + 8.2 + 10 + 1.4
	transFIT := 1.4 + 1.4 + 0.2 + 0.8 + 0.3
	pairs := PairLossProbability(permFIT, transFIT, 18, 4, cfg.LifetimeHours, cfg.ScrubIntervalHours)
	multiRank := MultiRankLossProbability(0.9+2.8, 4, cfg.LifetimeHours)
	analytic := pairs + multiRank
	if ratio := analytic / mc; ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("analytic %v vs monte-carlo %v (ratio %v)", analytic, mc, ratio)
	}
}

func TestTripleLossOrdersOfMagnitude(t *testing.T) {
	cfg := faultsim.DefaultConfig()
	rep, err := faultsim.Run(cfg, []faultsim.Scheme{faultsim.NewDoubleChipkill()}, 4_000_000, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.Results[0].Probability()
	permFIT := 0.3 + 5.6 + 8.2 + 10 + 1.4 + (2.8 / 18)
	transFIT := 1.4 + 1.4 + 0.2 + 0.8 + 0.3 + (0.9 / 18)
	analytic := TripleLossProbability(permFIT, transFIT, 36, 2, cfg.LifetimeHours, cfg.ScrubIntervalHours)
	// The closed form keeps only the dominant terms; demand order-of-
	// magnitude agreement.
	if mc > 0 && (analytic < mc/4 || analytic > mc*4) {
		t.Fatalf("analytic %v vs monte-carlo %v", analytic, mc)
	}
}
