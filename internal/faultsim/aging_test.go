package faultsim

import (
	"math"
	"testing"

	"xedsim/internal/simrand"
)

// MeanMultiplier integrates m(t) over the lifetime (trapezoid on the
// piecewise-linear profile) — the factor by which total fault counts grow.
func (a AgingProfile) MeanMultiplier() float64 {
	mean := 1.0
	if a.InfantFactor > 1 && a.BurnInFraction > 0 {
		mean += (a.InfantFactor - 1) / 2 * a.BurnInFraction
	}
	if a.WearoutFactor > 1 && a.WearoutOnset < 1 {
		mean += (a.WearoutFactor - 1) / 2 * (1 - a.WearoutOnset)
	}
	return mean
}

func TestAgingMultiplierShape(t *testing.T) {
	a := BathtubAging()
	if m := a.Multiplier(0); math.Abs(m-5) > 1e-9 {
		t.Fatalf("m(0) = %v, want 5 (infant)", m)
	}
	if m := a.Multiplier(0.5); math.Abs(m-1) > 1e-9 {
		t.Fatalf("m(0.5) = %v, want 1 (useful life)", m)
	}
	if m := a.Multiplier(1); math.Abs(m-3) > 1e-9 {
		t.Fatalf("m(1) = %v, want 3 (wear-out)", m)
	}
	if p := a.Peak(); p != 5 {
		t.Fatalf("peak = %v", p)
	}
	flat := FlatAging()
	for _, x := range []float64{0, 0.3, 1} {
		if flat.Multiplier(x) != 1 {
			t.Fatalf("flat multiplier at %v != 1", x)
		}
	}
	if flat.enabled() {
		t.Fatal("flat profile should be disabled")
	}
}

func TestAgingMeanMultiplier(t *testing.T) {
	a := BathtubAging()
	// Infant leg adds (5-1)/2*0.05 = 0.1; wear-out adds (3-1)/2*0.3 = 0.3.
	want := 1.4
	if got := a.MeanMultiplier(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean multiplier = %v, want %v", got, want)
	}
}

func TestAgingFaultCountsScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Aging = BathtubAging()
	gen := newGenerator(&cfg)
	rng := simrand.New(21)
	const trials = 30000
	total := 0
	early, late := 0, 0
	var buf []FaultRecord
	for i := 0; i < trials; i++ {
		buf = gen.Trial(rng, buf)
		total += len(buf)
		for j := range buf {
			x := buf[j].Start / cfg.LifetimeHours
			if x < 0.05 {
				early++
			}
			if x > 0.95 {
				late++
			}
		}
	}
	// Expected total scales by the mean multiplier.
	flatMean := 0.0
	for _, cls := range cfg.FITs {
		r := float64(cls.Rate) * 1e-9 * cfg.LifetimeHours
		if cls.Gran == 6 { // dram.GranChip
			flatMean += r * float64(cfg.Channels) * float64(cfg.RanksPerChannel)
		} else {
			flatMean += r * float64(cfg.TotalChips())
		}
	}
	want := flatMean * cfg.Aging.MeanMultiplier() * trials
	if f := float64(total); f < want*0.93 || f > want*1.07 {
		t.Fatalf("aged fault count %v, want ≈%v", f, want)
	}
	// Burn-in density: the first 5%% of life carries ~3x the average of
	// that window under flat rates ((5+1)/2 multiplier average).
	if early <= late {
		t.Fatalf("early faults (%d) should outnumber late window faults (%d) with 5x infant mortality", early, late)
	}
}

func TestAgingReliabilityOrderPreserved(t *testing.T) {
	// XED's advantage must survive the bathtub: infant mortality raises
	// everyone's failure probability, but the ordering is structural.
	cfg := DefaultConfig()
	cfg.Aging = BathtubAging()
	rep, err := Run(cfg, []Scheme{NewSECDED(), NewXED(), NewChipkill()}, 300_000, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	secded := rep.ResultFor("ECC-DIMM (SECDED)").Probability()
	xed := rep.ResultFor("XED").Probability()
	ck := rep.ResultFor("Chipkill").Probability()
	if !(xed < ck && ck < secded) {
		t.Fatalf("ordering broken under aging: xed=%v ck=%v secded=%v", xed, ck, secded)
	}
	// And everything got worse than the flat-rate run.
	flat, err := Run(DefaultConfig(), []Scheme{NewSECDED(), NewXED()}, 300_000, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if secded <= flat.ResultFor("ECC-DIMM (SECDED)").Probability() {
		t.Fatal("bathtub should raise SECDED failure probability")
	}
}
