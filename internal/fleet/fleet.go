// Package fleet is a datacenter-scale field simulator: it ages N simulated
// DIMMs over a multi-year horizon under the Table I field FIT rates and
// reports the telemetry a baremetal fleet monitor would scrape — per-
// memory-controller correctable/uncorrectable error counters in the Linux
// EDAC sysfs shape — plus the policy questions only a fleet view can
// answer: which page/row retirement policy buys the most nines per dollar,
// and how many machine-years pass before XED's catch-word collision corner
// actually bites.
//
// Each DIMM's runtime faults are one trial of the single-DIMM
// faultsim.Config. A chunk of DIMMs is planned exactly as a campaign chunk
// is (faultsim.TrialSource iterates over the batch plan) and each faulty
// DIMM is judged by the indexed faultsim.Evaluator, the scalar judge the
// campaigns' lane engine is held bit-identical to, so per-DIMM failure
// statistics tie back to the paper's Figure 1/7 curves by construction
// (the fleet/ conformance claim checks exactly this). On top
// of the record stream the simulator layers what campaigns abstract away:
// scrub-pass CE telemetry, retirement policies that truncate a fault's
// active interval, and replacement economics.
//
// Determinism comes from the chunk runner the campaigns share
// (internal/chunkrun): DIMMs are partitioned into fixed-size chunks, chunk
// c draws from simrand substream (seed, c), and every accumulator is a sum
// of per-chunk integers — so results are bit-identical for a fixed
// (Config, Seed) whatever the worker count, and checkpoint/resume restores
// mid-horizon runs exactly.
package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
)

// PolicyKind enumerates the page/row retirement policies.
type PolicyKind int

const (
	// PolicyNone never retires; faults stay live for their natural
	// interval. The baseline, and the mode whose failure statistics the
	// fleet/ conformance claim ties to the single-DIMM campaigns.
	PolicyNone PolicyKind = iota
	// PolicyOnFirstCE retires the damaged row at the first scrub pass
	// that logs a CE from a retirable fault — aggressive, burns capacity
	// on transient upsets that would have cleared anyway.
	PolicyOnFirstCE
	// PolicyThreshold retires after a fault's row has produced Threshold
	// CE reports (the classic "N strikes" operator rule).
	PolicyThreshold
	// PolicyHARP retires only rows a HARP-style active profile
	// (infer.ProfileChip) would flag at risk, decided in closed form
	// without running it: permanent faults repeat under profiling and
	// are retired at their first scrub, silent ones included; transient
	// upsets profile clean (the profiling writes clear them) and are
	// left alone.
	PolicyHARP
)

// Policy is a retirement policy selection.
type Policy struct {
	Kind      PolicyKind
	Threshold int // CE reports before retirement; PolicyThreshold only
}

// String renders the policy in the form ParsePolicy accepts.
func (p Policy) String() string {
	switch p.Kind {
	case PolicyNone:
		return "none"
	case PolicyOnFirstCE:
		return "on-first-ce"
	case PolicyThreshold:
		return fmt.Sprintf("threshold:%d", p.Threshold)
	case PolicyHARP:
		return "harp"
	}
	return fmt.Sprintf("Policy(%d)", int(p.Kind))
}

// ParsePolicy resolves a retirement-policy spec:
//
//	none            never retire (the conformance baseline)
//	on-first-ce     retire the row at its first logged CE
//	threshold:<n>   retire after n CE reports from the same fault
//	harp            retire permanent faults' rows at their first scrub, the
//	                rows an infer.ProfileChip pass would flag at risk
func ParsePolicy(spec string) (Policy, error) {
	switch spec {
	case "", "none":
		return Policy{Kind: PolicyNone}, nil
	case "on-first-ce":
		return Policy{Kind: PolicyOnFirstCE}, nil
	case "harp":
		return Policy{Kind: PolicyHARP}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "threshold:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return Policy{}, fmt.Errorf("fleet: retirement policy %q: threshold %q is not a positive integer", spec, rest)
		}
		return Policy{Kind: PolicyThreshold, Threshold: n}, nil
	}
	return Policy{}, fmt.Errorf("fleet: unknown retirement policy %q (want none, on-first-ce, threshold:<n> or harp)", spec)
}

// Config describes one fleet simulation. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	// DIMMs is the fleet size.
	DIMMs int
	// HorizonHours is the simulated aging period (7 years by default).
	HorizonHours float64
	// ScrubIntervalHours paces patrol scrubs: transient faults clear at
	// the next pass, and every pass over live damage logs one CE.
	ScrubIntervalHours float64
	// RanksPerDIMM and ChipsPerRank shape each DIMM (dual-rank, 9 x8
	// chips including ECC by default, matching §III).
	RanksPerDIMM int
	ChipsPerRank int
	// Geom shapes fault address ranges within a chip.
	Geom dram.Geometry
	// FITs is the per-chip fault-rate table (Table I by default).
	FITs faultsim.FITTable
	// OnDie and SilentWordFraction parameterise the on-die code exactly
	// as in faultsim.Config.
	OnDie              bool
	SilentWordFraction float64
	// Scheme is the rank-level protection scheme every DIMM runs, by
	// faultsim registry name ("XED" by default).
	Scheme string
	// Policy selects the page/row retirement policy.
	Policy Policy
	// DIMMsPerMC groups DIMMs under one "memory controller" for the EDAC
	// export (8 by default: one dual-channel controller, four DIMMs per
	// channel).
	DIMMsPerMC int
	// DIMMSizeMB feeds the EDAC size_mb attribute (4 GiB DIMMs per §III).
	DIMMSizeMB int
	// CostPerSwapUSD prices one DIMM replacement for the repair
	// economics summary.
	CostPerSwapUSD float64
}

// DefaultConfig returns a 10k-DIMM, 7-year fleet of the paper's DIMMs
// under XED with weekly scrubs and no retirement.
func DefaultConfig() Config {
	return Config{
		DIMMs:              10_000,
		HorizonHours:       7 * faultsim.HoursPerYear,
		ScrubIntervalHours: 24 * 7,
		RanksPerDIMM:       2,
		ChipsPerRank:       9,
		Geom:               dram.DefaultGeometry(),
		FITs:               faultsim.TableI(),
		OnDie:              true,
		SilentWordFraction: 0.008,
		Scheme:             "XED",
		Policy:             Policy{Kind: PolicyNone},
		DIMMsPerMC:         8,
		DIMMSizeMB:         4096,
		CostPerSwapUSD:     150,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.DIMMs <= 0 {
		return fmt.Errorf("fleet: non-positive DIMM count %d", c.DIMMs)
	}
	if c.HorizonHours <= 0 {
		return fmt.Errorf("fleet: non-positive horizon %v", c.HorizonHours)
	}
	if c.DIMMsPerMC <= 0 {
		return fmt.Errorf("fleet: non-positive DIMMs-per-controller %d", c.DIMMsPerMC)
	}
	if c.DIMMSizeMB <= 0 {
		return fmt.Errorf("fleet: non-positive DIMM size %d MB", c.DIMMSizeMB)
	}
	if c.CostPerSwapUSD < 0 || math.IsNaN(c.CostPerSwapUSD) {
		return fmt.Errorf("fleet: invalid swap cost %v", c.CostPerSwapUSD)
	}
	switch c.Policy.Kind {
	case PolicyNone, PolicyOnFirstCE, PolicyHARP:
	case PolicyThreshold:
		if c.Policy.Threshold <= 0 {
			return fmt.Errorf("fleet: threshold policy needs a positive threshold, got %d", c.Policy.Threshold)
		}
	default:
		return fmt.Errorf("fleet: unknown policy kind %d", int(c.Policy.Kind))
	}
	if _, err := c.schemes(); err != nil {
		return err
	}
	// The single-DIMM view validates the remaining fields (ranks, chips,
	// geometry, FIT table, scrub interval, silent fraction).
	dimm := c.dimmConfig()
	return dimm.Validate()
}

// dimmConfig is the single-DIMM faultsim view of this fleet: one channel
// holding one DIMM of RanksPerDIMM ranks. Fault generation and failure
// judging both run against it, which is what ties fleet statistics to the
// campaign curves.
func (c *Config) dimmConfig() faultsim.Config {
	return faultsim.Config{
		Channels:           1,
		RanksPerChannel:    c.RanksPerDIMM,
		ChipsPerRank:       c.ChipsPerRank,
		Geom:               c.Geom,
		LifetimeHours:      c.HorizonHours,
		ScrubIntervalHours: c.ScrubIntervalHours,
		FITs:               c.FITs,
		OnDie:              c.OnDie,
		SilentWordFraction: c.SilentWordFraction,
	}
}

// schemes resolves the configured scheme name.
func (c *Config) schemes() ([]faultsim.Scheme, error) {
	name := c.Scheme
	if name == "" {
		name = "XED"
	}
	return faultsim.SchemesByName(name)
}

// Years returns the number of (whole or partial) simulated years.
func (c *Config) Years() int {
	return int(math.Ceil(c.HorizonHours / faultsim.HoursPerYear))
}

// MCs returns the number of simulated memory controllers.
func (c *Config) MCs() int {
	return (c.DIMMs + c.DIMMsPerMC - 1) / c.DIMMsPerMC
}

// ExpectedFaultsPerDIMM returns the Poisson mean of fault arrivals per
// DIMM over the horizon — the rate the statistical battery's chi-squared
// test checks the simulator against.
func (c *Config) ExpectedFaultsPerDIMM() (float64, error) {
	src, err := c.trialSource()
	if err != nil {
		return 0, err
	}
	return src.Mean(), nil
}

// trialSource builds the source DIMMs are drawn through: every DIMM is one
// trial of the single-DIMM view. A Run builds it once and gives each
// worker a Fork.
func (c *Config) trialSource() (*faultsim.TrialSource, error) {
	dimm := c.dimmConfig()
	return faultsim.NewTrialSource(&dimm)
}
