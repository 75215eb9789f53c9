package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"xedsim/internal/conformance"
	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/memsim"
)

var update = flag.Bool("update", false, "regenerate testdata/tablei_reference.json (about a minute on two cores)")

// TestTableIReference regenerates the campaign check's reference with
// -update, and otherwise checks that the committed one covers every scheme
// with enough trials to be a yardstick.
func TestTableIReference(t *testing.T) {
	if *update {
		ref := tableIReference{Seed: 0x5eed, Trials: 1 << 30, Failures: map[string]uint64{}}
		rep, err := faultsim.RunCampaign(context.Background(), faultsim.DefaultConfig(), faultsim.AllSchemes(),
			faultsim.CampaignOptions{Trials: int(ref.Trials), Seed: ref.Seed, Workers: runtime.NumCPU()})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			ref.Failures[r.SchemeName] = r.Failures
		}
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/tablei_reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref, err := loadTableIReference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trials < 1e8 {
		t.Errorf("reference has %d trials, want at least 1e8", ref.Trials)
	}
	for _, name := range faultsim.SchemeNames() {
		if _, ok := ref.Failures[name]; !ok {
			t.Errorf("reference lacks %s", name)
		}
	}
}

func TestCheckCampaignReport(t *testing.T) {
	good := func() *faultsim.Report {
		return &faultsim.Report{Trials: 99, Requested: 100, TrialErrors: make([]faultsim.TrialError, 1),
			Results: []faultsim.Result{{SchemeName: "XED", Trials: 99}}}
	}
	if err := checkCampaignReport(good()); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	lost := good()
	lost.TrialErrors = nil // a trial neither tallied nor voided
	short := good()
	short.Results[0].Trials = 98
	for name, rep := range map[string]*faultsim.Report{"lost trial": lost, "scheme short": short} {
		if checkCampaignReport(rep) == nil {
			t.Errorf("%s: doctored report accepted", name)
		}
	}
}

func TestCheckCampaignTotals(t *testing.T) {
	ref, err := loadTableIReference()
	if err != nil {
		t.Fatal(err)
	}
	copyFailures := func() map[string]uint64 {
		f := map[string]uint64{}
		for k, v := range ref.Failures {
			f[k] = v
		}
		return f
	}
	if err := checkCampaignTotals(ref.Trials, copyFailures(), ref); err != nil {
		t.Fatalf("the reference itself rejected: %v", err)
	}
	swapped := copyFailures()
	swapped["XED"], swapped["Chipkill"] = swapped["Chipkill"], swapped["XED"]
	inflated := copyFailures()
	inflated["Double-Chipkill"] = inflated["Double-Chipkill"] * 11 / 10
	for name, f := range map[string]map[string]uint64{"order swapped": swapped, "rate 10% off": inflated} {
		if checkCampaignTotals(ref.Trials, f, ref) == nil {
			t.Errorf("%s: doctored totals accepted", name)
		}
	}
}

func TestCheckFleet(t *testing.T) {
	cfg := harpFleet(20_000)
	sum, err := fleet.Run(context.Background(), cfg, fleet.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(cfg, sum); err != nil {
		t.Fatalf("real fleet rejected: %v", err)
	}
	doctored := map[string]func(c *fleet.Config, s *fleet.Summary){
		"DIMM lost":      func(_ *fleet.Config, s *fleet.Summary) { s.Tally.DIMMs-- },
		"silent failure": func(_ *fleet.Config, s *fleet.Summary) { s.Tally.SDCs = 1 },
		"faults doubled": func(_ *fleet.Config, s *fleet.Summary) { s.Tally.Faults *= 2 },
		"dump breaks":    func(c *fleet.Config, _ *fleet.Summary) { c.Scheme = "XED\nmc_name" },
	}
	for name, doctor := range doctored {
		c, s := cfg, *sum
		doctor(&c, &s)
		if checkFleet(c, &s) == nil {
			t.Errorf("%s: doctored fleet accepted", name)
		}
	}
}

func TestCheckComparison(t *testing.T) {
	const instr = 2000
	run := func() *memsim.Comparison {
		c, err := memsim.RunComparison(context.Background(), memsim.PaperWorkloads()[:2], fig11Schemes(), instr, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := checkComparison(run(), instr); err != nil {
		t.Fatalf("real comparison rejected: %v", err)
	}
	doctored := map[string]func(c *memsim.Comparison){
		"XED slower": func(c *memsim.Comparison) { c.Results[0][1].Cycles++ },
		"Chipkill for free": func(c *memsim.Comparison) {
			c.Results[0][2].Cycles, c.Results[1][2].Cycles = c.Results[0][0].Cycles, c.Results[1][0].Cycles
		},
		"instructions lost": func(c *memsim.Comparison) { c.Results[1][4].Instructions-- },
	}
	for name, doctor := range doctored {
		c := run()
		doctor(c)
		if checkComparison(c, instr) == nil {
			t.Errorf("%s: doctored comparison accepted", name)
		}
	}
}

func TestCheckService(t *testing.T) {
	ok := []conformance.Verdict{{Claim: "fig7/xed-over-secded-10x", Status: conformance.Confirmed}}
	if err := checkService(ok, serviceCounters{}); err != nil {
		t.Fatalf("clean gate rejected: %v", err)
	}
	refuted := []conformance.Verdict{{Claim: "fig7/xed-over-secded-10x", Status: conformance.Refuted}}
	cases := map[string]error{
		"claim refuted": checkService(refuted, serviceCounters{}),
		"cache hit":     checkService(ok, serviceCounters{CacheHits: 1}),
		"lease expired": checkService(ok, serviceCounters{LeasesExpired: 1}),
		"job failed":    checkService(ok, serviceCounters{JobsFailed: 1}),
	}
	for name, err := range cases {
		if err == nil {
			t.Errorf("%s: doctored gate accepted", name)
		} else if !strings.Contains(err.Error(), "verify-service") {
			t.Errorf("%s: error %q does not name the workload", name, err)
		}
	}
}
