package faultsim

import (
	"math"
	"strings"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

func TestTableIRates(t *testing.T) {
	tbl := TableI()
	if len(tbl) != 14 {
		t.Fatalf("Table I has %d classes, want 14", len(tbl))
	}
	if got := float64(tbl.TotalFIT()); math.Abs(got-66.1) > 1e-9 {
		t.Fatalf("total FIT = %v, want 66.1", got)
	}
	// Visible = total minus the two single-bit classes (14.2 + 18.6).
	if got := float64(tbl.VisibleFIT()); math.Abs(got-33.3) > 1e-9 {
		t.Fatalf("visible FIT = %v, want 33.3", got)
	}
}

func TestGeneratorMeanFaultCount(t *testing.T) {
	cfg := DefaultConfig()
	gen := newGenerator(&cfg)
	rng := simrand.New(1)
	const trials = 30000
	var total int
	var buf []FaultRecord
	for i := 0; i < trials; i++ {
		buf = gen.Trial(rng, buf)
		total += len(buf)
	}
	got := float64(total) / trials
	// Expected records: non-multi-rank classes arrive per chip; the two
	// multi-rank classes arrive once per DIMM and expand into one record
	// per rank.
	want := 0.0
	for _, cls := range cfg.FITs {
		rate := float64(cls.Rate) * 1e-9 * cfg.LifetimeHours
		if cls.Gran == dram.GranChip {
			want += rate * float64(cfg.Channels) * float64(cfg.RanksPerChannel)
		} else {
			want += rate * float64(cfg.TotalChips())
		}
	}
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("mean faults/trial = %v, want ≈%v", got, want)
	}
}

func TestGeneratorMultiRankExpansion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranChip, false, 1000000}} // force multi-rank only
	gen := newGenerator(&cfg)
	rng := simrand.New(2)
	buf := gen.Trial(rng, nil)
	if len(buf) == 0 {
		t.Fatal("expected events at huge FIT")
	}
	if len(buf)%cfg.RanksPerChannel != 0 {
		t.Fatalf("multi-rank records (%d) not a multiple of ranks", len(buf))
	}
	// Every event must appear once per rank, same channel/chip/times.
	byEvent := map[uint64][]FaultRecord{}
	for _, r := range buf {
		byEvent[r.EventID] = append(byEvent[r.EventID], r)
	}
	for id, recs := range byEvent {
		if len(recs) != cfg.RanksPerChannel {
			t.Fatalf("event %d has %d records", id, len(recs))
		}
		if recs[0].Channel != recs[1].Channel || recs[0].Chip != recs[1].Chip || recs[0].Rank == recs[1].Rank {
			t.Fatalf("event %d footprint wrong: %+v", id, recs)
		}
	}
}

func TestTransientFaultEndsAtScrub(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranRow, true, 500000}}
	gen := newGenerator(&cfg)
	rng := simrand.New(3)
	var buf []FaultRecord
	for i := 0; i < 50; i++ {
		buf = gen.Trial(rng, buf)
		for _, r := range buf {
			if !r.Transient {
				t.Fatal("expected transient records")
			}
			if r.End-r.Start > cfg.ScrubIntervalHours+1e-9 {
				t.Fatalf("transient fault lives %v h, scrub is %v", r.End-r.Start, cfg.ScrubIntervalHours)
			}
			if r.End > cfg.LifetimeHours {
				t.Fatal("fault outlives the system")
			}
		}
	}
}

func TestPermanentFaultPersists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranBank, false, 500000}}
	gen := newGenerator(&cfg)
	rng := simrand.New(4)
	buf := gen.Trial(rng, nil)
	for _, r := range buf {
		if r.End != cfg.LifetimeHours {
			t.Fatalf("permanent fault ends at %v, want lifetime", r.End)
		}
	}
}

// mkRec builds a record for direct scheme testing.
func mkRec(ch, rank, chip int, gran dram.Granularity, transient bool, start, end float64) FaultRecord {
	return FaultRecord{Channel: ch, Rank: rank, Chip: chip, Gran: gran,
		Transient: transient, Start: start, End: end,
		Range: dram.NewChipFault(transient, 1)}
}

// failTime is the reference probe's failure instant, kind aside.
func failTime(s Scheme, cfg *Config, faults []FaultRecord) float64 {
	t, _ := s.FailTimeKind(cfg, faults)
	return t
}

func TestSchemeSingleFaultRules(t *testing.T) {
	cfg := DefaultConfig()
	bank := mkRec(0, 0, 0, dram.GranBank, false, 100, cfg.LifetimeHours)
	bit := mkRec(0, 0, 0, dram.GranBit, false, 100, cfg.LifetimeHours)

	cases := []struct {
		scheme   Scheme
		fault    FaultRecord
		wantFail bool
	}{
		{NewNonECC(), bank, true},
		{NewNonECC(), bit, false}, // absorbed on-die
		{NewSECDED(), bank, true}, // multi-bit defeats SECDED
		{NewSECDED(), bit, false},
		{NewXED(), bank, false}, // one erasure: corrected
		{NewXED(), bit, false},
		{NewChipkill(), bank, false},
		{NewDoubleChipkill(), bank, false},
		{NewXEDChipkill(), bank, false},
	}
	for _, c := range cases {
		ft := failTime(c.scheme, &cfg, []FaultRecord{c.fault})
		if got := !math.IsInf(ft, 1); got != c.wantFail {
			t.Errorf("%s with single %v fault: failed=%v, want %v",
				c.scheme.Name(), c.fault.Gran, got, c.wantFail)
		}
	}
}

func TestSchemePairRules(t *testing.T) {
	cfg := DefaultConfig()
	// Two permanent bank faults in different chips of the same rank.
	a := mkRec(0, 0, 1, dram.GranBank, false, 100, cfg.LifetimeHours)
	b := mkRec(0, 0, 5, dram.GranBank, false, 200, cfg.LifetimeHours)
	pair := []FaultRecord{a, b}

	if ft := failTime(NewXED(), &cfg, pair); ft != 200 {
		t.Errorf("XED pair in one rank: failTime %v, want 200 (overlap onset)", ft)
	}
	// Chipkill's 18-chip gang is the whole dual-rank DIMM: the pair
	// also fails there (two chips of the 18).
	if ft := failTime(NewChipkill(), &cfg, pair); ft != 200 {
		t.Errorf("Chipkill pair: failTime %v, want 200", ft)
	}
	// Two-erasure schemes survive the pair.
	if ft := failTime(NewXEDChipkill(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("XED+Chipkill pair should be corrected, failed at %v", ft)
	}
	if ft := failTime(NewDoubleChipkill(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("Double-Chipkill pair should be corrected, failed at %v", ft)
	}
}

func TestSchemePairDifferentRanksXEDSurvives(t *testing.T) {
	cfg := DefaultConfig()
	a := mkRec(0, 0, 1, dram.GranBank, false, 100, cfg.LifetimeHours)
	b := mkRec(0, 1, 5, dram.GranBank, false, 200, cfg.LifetimeHours)
	pair := []FaultRecord{a, b}
	// Different ranks: XED's 9-chip domains each see one fault — this is
	// the group-size advantage behind Figure 7's 4x.
	if ft := failTime(NewXED(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("XED cross-rank pair should be corrected, failed at %v", ft)
	}
	// Chipkill gangs both ranks of the DIMM: the same pair is fatal.
	if ft := failTime(NewChipkill(), &cfg, pair); ft != 200 {
		t.Errorf("Chipkill DIMM-gang pair: failTime %v, want 200", ft)
	}
	// Different channels are different Chipkill gangs.
	c := mkRec(1, 0, 3, dram.GranBank, false, 300, cfg.LifetimeHours)
	crossChannel := []FaultRecord{a, c}
	if ft := failTime(NewChipkill(), &cfg, crossChannel); !math.IsInf(ft, 1) {
		t.Errorf("Chipkill cross-channel pair should be corrected, failed at %v", ft)
	}
	// ...but one Double-Chipkill gang spans channel pairs.
	if ft := failTime(NewDoubleChipkill(), &cfg, crossChannel); !math.IsInf(ft, 1) {
		t.Errorf("Double-Chipkill corrects two chips, failed at %v", ft)
	}
}

func TestSchemeTransientNoOverlapSurvives(t *testing.T) {
	cfg := DefaultConfig()
	// Two transient faults in different chips, non-overlapping windows.
	a := mkRec(0, 0, 1, dram.GranRow, true, 100, 150)
	b := mkRec(0, 0, 5, dram.GranRow, true, 500, 550)
	if ft := failTime(NewXED(), &cfg, []FaultRecord{a, b}); !math.IsInf(ft, 1) {
		t.Errorf("non-overlapping transients should be corrected, failed at %v", ft)
	}
	// Overlapping windows fail.
	c := mkRec(0, 0, 5, dram.GranRow, true, 120, 170)
	if ft := failTime(NewXED(), &cfg, []FaultRecord{a, c}); ft != 120 {
		t.Errorf("overlapping transients: failTime %v, want 120", ft)
	}
}

func TestXEDSilentTransientWordIsDUE(t *testing.T) {
	cfg := DefaultConfig()
	r := mkRec(0, 0, 2, dram.GranWord, true, 100, 150)
	r.Silent = true
	if ft := failTime(NewXED(), &cfg, []FaultRecord{r}); ft != 100 {
		t.Errorf("silent transient word fault: failTime %v, want 100 (DUE)", ft)
	}
	// Permanent silent word faults are convicted by Intra-Line diagnosis.
	p := mkRec(0, 0, 2, dram.GranWord, false, 100, cfg.LifetimeHours)
	p.Silent = true
	if ft := failTime(NewXED(), &cfg, []FaultRecord{p}); !math.IsInf(ft, 1) {
		t.Errorf("permanent silent word fault should be diagnosed, failed at %v", ft)
	}
}

func TestXEDChipkillSilentWordConsumesBudget(t *testing.T) {
	cfg := DefaultConfig()
	silent := mkRec(0, 0, 2, dram.GranWord, false, 100, cfg.LifetimeHours)
	silent.Silent = true
	other := mkRec(0, 1, 4, dram.GranBank, false, 200, cfg.LifetimeHours)
	// Alone: locatable by the RS code (2t <= R).
	if ft := failTime(NewXEDChipkill(), &cfg, []FaultRecord{silent}); !math.IsInf(ft, 1) {
		t.Errorf("lone silent word should be RS-corrected, failed at %v", ft)
	}
	// Silent (weight 2) + flagged (weight 1) = 3 > 2: fail.
	if ft := failTime(NewXEDChipkill(), &cfg, []FaultRecord{silent, other}); ft != 200 {
		t.Errorf("silent+flagged pair: failTime %v, want 200", ft)
	}
}

func TestMultiRankFaultDomainInteraction(t *testing.T) {
	cfg := DefaultConfig()
	// A multi-rank event: chip 3 of both ranks of channel 0's DIMM.
	a := mkRec(0, 0, 3, dram.GranChip, false, 100, cfg.LifetimeHours)
	b := mkRec(0, 1, 3, dram.GranChip, false, 100, cfg.LifetimeHours)
	a.EventID, b.EventID = 7, 7
	pair := []FaultRecord{a, b}
	// XED: one chip per rank → corrected. This immunity to multi-rank
	// faults is a second mechanism behind XED's edge over Chipkill.
	if ft := failTime(NewXED(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("XED multi-rank should be corrected, failed at %v", ft)
	}
	// Chipkill's DIMM-wide gang sees two concurrent chips → fatal.
	if ft := failTime(NewChipkill(), &cfg, pair); ft != 100 {
		t.Errorf("Chipkill multi-rank: failTime %v, want 100", ft)
	}
	// The two-erasure schemes absorb it.
	if ft := failTime(NewXEDChipkill(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("XED+Chipkill multi-rank should be corrected, failed at %v", ft)
	}
	if ft := failTime(NewDoubleChipkill(), &cfg, pair); !math.IsInf(ft, 1) {
		t.Errorf("Double-Chipkill multi-rank should be corrected, failed at %v", ft)
	}
}

func TestAddressOverlapCriterion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequireAddressOverlap = true
	// Row fault in bank 2 and bank fault in bank 5: disjoint ranges.
	a := mkRec(0, 0, 1, dram.GranRow, false, 100, cfg.LifetimeHours)
	a.Range = dram.NewRowFault(2, 10, false, 1)
	b := mkRec(0, 0, 5, dram.GranBank, false, 200, cfg.LifetimeHours)
	b.Range = dram.NewBankFault(5, false, 2)
	if ft := failTime(NewXED(), &cfg, []FaultRecord{a, b}); !math.IsInf(ft, 1) {
		t.Errorf("disjoint ranges should be corrected under precise criterion, failed at %v", ft)
	}
	// Same bank: ranges intersect → fail.
	b.Range = dram.NewBankFault(2, false, 2)
	if ft := failTime(NewXED(), &cfg, []FaultRecord{a, b}); ft != 200 {
		t.Errorf("intersecting ranges: failTime %v, want 200", ft)
	}
}

func TestScalingWithoutOnDieIsFatal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnDie = false
	cfg.ScalingRate = 1e-4
	for _, s := range AllSchemes() {
		if ft := failTime(s, &cfg, nil); ft != 0 {
			t.Errorf("%s: failTime %v, want 0 (scaling without on-die)", s.Name(), ft)
		}
	}
}

func TestRunSmallCampaign(t *testing.T) {
	cfg := DefaultConfig()
	rep, err := Run(cfg, AllSchemes(), 20000, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		r := rep.ResultFor(name)
		if r == nil {
			t.Fatalf("missing result %q", name)
		}
		return r.Probability()
	}
	nonECC := get("NonECC")
	secded := get("ECC-DIMM (SECDED)")
	xed := get("XED")
	ck := get("Chipkill")

	// Figure 1 shape: SECDED buys almost nothing over NonECC (within
	// 25% of each other), both roughly the visible-FIT exposure.
	if nonECC < 0.08 || nonECC > 0.22 {
		t.Errorf("NonECC probability %v outside expected band", nonECC)
	}
	if ratio := secded / nonECC; ratio < 0.8 || ratio > 1.35 {
		t.Errorf("SECDED/NonECC ratio %v, want ≈1 (9 vs 8 chips)", ratio)
	}
	// Figure 7 shape: XED and Chipkill orders of magnitude better.
	if xed >= secded/20 {
		t.Errorf("XED (%v) should be >>20x better than SECDED (%v)", xed, secded)
	}
	if ck >= secded/5 {
		t.Errorf("Chipkill (%v) should be much better than SECDED (%v)", ck, secded)
	}
	// Cumulative curves must be monotone and end at the total.
	for _, res := range rep.Results {
		prev := uint64(0)
		for _, v := range res.FailuresByYear {
			if v < prev {
				t.Fatalf("%s: non-monotone cumulative curve", res.SchemeName)
			}
			prev = v
		}
		if prev != res.Failures {
			t.Fatalf("%s: curve end %d != failures %d", res.SchemeName, prev, res.Failures)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Run(cfg, []Scheme{NewXED(), NewSECDED()}, 5000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, []Scheme{NewXED(), NewSECDED()}, 5000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].Failures != b.Results[i].Failures {
			t.Fatalf("run not deterministic for %s", a.Results[i].SchemeName)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(cfg, AllSchemes(), 0, 1, 1); err == nil {
		t.Error("expected error for zero trials")
	}
	if _, err := Run(cfg, nil, 10, 1, 1); err == nil {
		t.Error("expected error for no schemes")
	}
	bad := cfg
	bad.Channels = 0
	if _, err := Run(bad, AllSchemes(), 10, 1, 1); err == nil {
		t.Error("expected error for bad config")
	}
}

func BenchmarkTrialGeneration(b *testing.B) {
	cfg := DefaultConfig()
	gen := newGenerator(&cfg)
	rng := simrand.New(9)
	var buf []FaultRecord
	for i := 0; i < b.N; i++ {
		buf = gen.Trial(rng, buf)
	}
}

func BenchmarkFullTrialAllSchemes(b *testing.B) {
	cfg := DefaultConfig()
	gen := newGenerator(&cfg)
	schemes := AllSchemes()
	rng := simrand.New(10)
	var buf []FaultRecord
	for i := 0; i < b.N; i++ {
		buf = gen.Trial(rng, buf)
		for _, s := range schemes {
			failTime(s, &cfg, buf)
		}
	}
}

func TestReportAccessors(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Ranks() != 8 {
		t.Fatalf("ranks = %d", cfg.Ranks())
	}
	rep, err := Run(cfg, []Scheme{NewSECDED(), NewXED()}, 30_000, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	secded := rep.ResultFor("ECC-DIMM (SECDED)")
	if secded.StdErr() <= 0 {
		t.Fatal("zero standard error with failures present")
	}
	if secded.ProbabilityByYear(-1) != 0 || secded.ProbabilityByYear(99) != 0 {
		t.Fatal("out-of-range year should read 0")
	}
	if secded.ProbabilityByYear(6) != secded.Probability() {
		t.Fatal("final-year cumulative != total")
	}
	if p := secded.DUEProbability() + secded.SDCProbability(); p != secded.Probability() {
		t.Fatalf("kind split %v != total %v", p, secded.Probability())
	}
	if rep.ResultFor("nope") != nil {
		t.Fatal("unknown scheme should be nil")
	}
	if imp := rep.Improvement("XED", "ECC-DIMM (SECDED)"); imp <= 1 {
		t.Fatalf("improvement = %v", imp)
	}
	if !math.IsInf(rep.Improvement("nope", "XED"), 1) {
		t.Fatal("missing scheme should give +Inf improvement")
	}
}

// TestReportWriteTable pins the per-year table xedfaultsim prints, on
// local cores or with -coordinator.
func TestReportWriteTable(t *testing.T) {
	rep := &Report{Years: 2, Results: []Result{{
		SchemeName: "XED", Trials: 100, Failures: 4, DUEs: 3, SDCs: 1,
		FailuresByYear: []uint64{1, 4},
	}}}
	var b strings.Builder
	rep.WriteTable(&b)
	want := "scheme \\ year                  1         2\n" +
		"XED                         0.01      0.04   (±0.02; DUE 0.03, SDC 0.01)\n"
	if b.String() != want {
		t.Fatalf("WriteTable wrote\n%s\nwant\n%s", b.String(), want)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.ScrubIntervalHours = 0 },
		func(c *Config) { c.FITs = nil },
		func(c *Config) { c.SilentWordFraction = 2 },
		func(c *Config) { c.Geom.Banks = 0 },
		func(c *Config) { c.LifetimeHours = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestDoubleChipkillKindSplit(t *testing.T) {
	cfg := DefaultConfig()
	rep, err := Run(cfg, []Scheme{NewDoubleChipkill()}, 3_000_000, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Failures == 0 {
		t.Skip("no DCK failures at this trial count")
	}
	if res.DUEs+res.SDCs != res.Failures {
		t.Fatal("kind partition broken")
	}
	// Triple-error mis-correction is ~1%: DUEs must dominate.
	if res.SDCs > res.DUEs/10 {
		t.Fatalf("DCK SDCs (%d) implausibly high vs DUEs (%d)", res.SDCs, res.DUEs)
	}
}

func TestImprovementCI(t *testing.T) {
	cfg := DefaultConfig()
	rep, err := Run(cfg, []Scheme{NewSECDED(), NewXED()}, 400_000, 19, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio, lo, hi := rep.ImprovementCI("XED", "ECC-DIMM (SECDED)")
	if !(lo < ratio && ratio < hi) {
		t.Fatalf("CI (%v, %v) does not bracket ratio %v", lo, hi, ratio)
	}
	if lo < 50 || hi > 500 {
		t.Fatalf("CI (%v, %v) implausibly wide for this trial count", lo, hi)
	}
	if _, lo2, hi2 := rep.ImprovementCI("XED", "nope"); lo2 != 0 || !math.IsInf(hi2, 1) {
		t.Fatal("missing scheme should give degenerate CI")
	}
}
