package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"xedsim/internal/conformance"
	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
	"xedsim/internal/memsim"
)

// Each workload's output is checked by one of the functions below; every
// one returns an error describing the first violation it finds.

//go:embed testdata/tablei_reference.json
var tableIReferenceJSON []byte

// tableIReference holds a large Table I campaign's per-scheme failure
// counts (faultsim.DefaultConfig, faultsim.AllSchemes), the yardstick every
// campaign-tablei run is held to. TestTableIReference regenerates it.
type tableIReference struct {
	Seed     uint64            `json:"seed"`
	Trials   uint64            `json:"trials"`
	Failures map[string]uint64 `json:"failures"`
}

func loadTableIReference() (*tableIReference, error) {
	var ref tableIReference
	if err := json.Unmarshal(tableIReferenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("table I reference: %w", err)
	}
	if ref.Trials == 0 || len(ref.Failures) == 0 {
		return nil, errors.New("table I reference: no trials")
	}
	return &ref, nil
}

// tableIOrder lists the schemes of Table I from most to least reliable:
// their failure counts over the same fault stream must rise strictly.
var tableIOrder = []string{"XED+Chipkill", "Double-Chipkill", "XED", "Chipkill", "ECC-DIMM (SECDED)"}

// checkCampaignReport checks one campaign's trial accounting: tallied plus
// voided trials make up the request, and every scheme saw every trial.
func checkCampaignReport(rep *faultsim.Report) error {
	if voided := uint64(len(rep.TrialErrors)); rep.Trials+voided != rep.Requested {
		return fmt.Errorf("campaign: %d tallied + %d voided trials != %d requested", rep.Trials, voided, rep.Requested)
	}
	for _, r := range rep.Results {
		if r.Trials != rep.Trials {
			return fmt.Errorf("campaign: %s judged %d of %d trials", r.SchemeName, r.Trials, rep.Trials)
		}
	}
	return nil
}

// checkCampaignTotals checks the failure counts summed over a run's
// campaigns: Table I's ordering holds strictly, and every scheme's failure
// probability lies within 6σ of the reference, σ combining the binomial
// errors of both estimates.
func checkCampaignTotals(trials uint64, failures map[string]uint64, ref *tableIReference) error {
	if trials == 0 {
		return errors.New("campaign: no trials tallied")
	}
	for i := 1; i < len(tableIOrder); i++ {
		a, b := tableIOrder[i-1], tableIOrder[i]
		if failures[a] >= failures[b] {
			return fmt.Errorf("campaign: %s failed %d times, not fewer than %s's %d", a, failures[a], b, failures[b])
		}
	}
	for name, kr := range ref.Failures {
		k, ok := failures[name]
		if !ok {
			return fmt.Errorf("campaign: no result for %s", name)
		}
		p, pr := float64(k)/float64(trials), float64(kr)/float64(ref.Trials)
		sigma := math.Sqrt(pr * (1 - pr) * (1/float64(trials) + 1/float64(ref.Trials)))
		if math.Abs(p-pr) > 6*sigma {
			return fmt.Errorf("campaign: %s failure probability %.4g is %.1fσ from the reference %.4g",
				name, p, math.Abs(p-pr)/sigma, pr)
		}
	}
	return nil
}

// checkFleet checks one fleet run: every DIMM aged, no silent corruption
// under XED, fault arrivals within 6σ of their Poisson expectation, and an
// EDAC dump that parses back to the snapshot it was rendered from.
func checkFleet(cfg fleet.Config, s *fleet.Summary) error {
	if !s.Complete || s.Tally.DIMMs != uint64(cfg.DIMMs) {
		return fmt.Errorf("fleet: %d of %d DIMMs aged", s.Tally.DIMMs, cfg.DIMMs)
	}
	if s.Tally.SDCs != 0 {
		return fmt.Errorf("fleet: %d silent data corruptions under %s", s.Tally.SDCs, cfg.Scheme)
	}
	mean, err := cfg.ExpectedFaultsPerDIMM()
	if err != nil {
		return err
	}
	want := mean * float64(cfg.DIMMs)
	if d := math.Abs(float64(s.Tally.Faults) - want); d > 6*math.Sqrt(want) {
		return fmt.Errorf("fleet: %d faults, expected %.0f (%.1fσ off)", s.Tally.Faults, want, d/math.Sqrt(want))
	}
	snap := fleet.NewEDACSnapshot(&cfg, s.MCs)
	back, err := fleet.ParseEDACDump(snap.Dump())
	if err != nil {
		return fmt.Errorf("fleet: EDAC dump: %w", err)
	}
	if !reflect.DeepEqual(snap, back) {
		return errors.New("fleet: EDAC dump does not parse back to its snapshot")
	}
	return nil
}

// Figure 11's schemes in result order; SECDED is the baseline the others
// are normalised to.
const (
	memsimXED      = "XED (9 chips)"
	memsimChipkill = "Chipkill (18 chips)"
)

// checkComparison checks one Figure 11 comparison: XED costs exactly
// nothing over the SECDED baseline, Chipkill costs something, and every
// simulation retired all of its instructions.
func checkComparison(c *memsim.Comparison, instrPerCore int64) error {
	idx := map[string]int{}
	for i, s := range c.Schemes {
		idx[s.Name] = i
	}
	xed, ok1 := idx[memsimXED]
	ck, ok2 := idx[memsimChipkill]
	if !ok1 || !ok2 {
		return fmt.Errorf("memsim: comparison lacks %q or %q", memsimXED, memsimChipkill)
	}
	if g := c.GmeanTime(xed); g != 1 {
		return fmt.Errorf("memsim: XED gmean time %.6f, want exactly 1", g)
	}
	if g := c.GmeanTime(ck); !(g > 1) {
		return fmt.Errorf("memsim: Chipkill gmean time %.6f, want above 1", g)
	}
	for w, row := range c.Results {
		want := instrPerCore * int64(memsim.DefaultConfig(c.Workloads[w], c.Schemes[0]).Cores)
		for s, r := range row {
			if r.Instructions != want || r.Cycles <= 0 {
				return fmt.Errorf("memsim: %s under %s retired %d of %d instructions in %d cycles",
					c.Workloads[w].Name, c.Schemes[s].Name, r.Instructions, want, r.Cycles)
			}
		}
	}
	return nil
}

// serviceCounters are the coordinator counters the verify-service check
// reads.
type serviceCounters struct {
	CacheHits, LeasesExpired, JobsFailed uint64
}

// checkService checks a gate run through the service: every claim decided
// is CONFIRMED, no job failed, no result came from the completed-job cache
// (each job must really run), and no lease expired.
func checkService(verdicts []conformance.Verdict, c serviceCounters) error {
	for _, v := range verdicts {
		if v.Status != conformance.Confirmed {
			return fmt.Errorf("verify-service: claim %s is %s: %s", v.Claim, v.Status, v.Detail)
		}
	}
	switch {
	case c.JobsFailed != 0:
		return fmt.Errorf("verify-service: %d jobs failed", c.JobsFailed)
	case c.CacheHits != 0:
		return fmt.Errorf("verify-service: %d submissions hit the completed-job cache", c.CacheHits)
	case c.LeasesExpired != 0:
		return fmt.Errorf("verify-service: %d leases expired", c.LeasesExpired)
	}
	return nil
}
