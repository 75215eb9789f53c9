// Package xedsim is a library-level reproduction of "XED: Exposing On-Die
// Error Detection Information for Strong Memory Reliability" (Nair,
// Sridharan, Qureshi — ISCA 2016).
//
// It bundles four subsystems behind one facade:
//
//   - a functional DRAM + XED memory-controller model (internal/dram,
//     internal/core): chips with On-Die ECC, catch-words, RAID-3 parity
//     reconstruction, serial-mode correction and fault diagnosis;
//   - the ECC substrate (internal/ecc): Hamming and CRC8-ATM (72,64)
//     SECDED codes, XOR parity, and Reed-Solomon symbol codes with
//     erasure decoding for the Chipkill family;
//   - a FaultSim-style Monte-Carlo reliability simulator
//     (internal/faultsim) reproducing Figures 1, 7, 8, 9 and 10;
//   - a USIMM-style cycle-level performance and power simulator
//     (internal/memsim) reproducing Figures 11, 12, 13 and 14.
//
// The facade exposes the high-level entry points a downstream user needs:
// build an XED-protected memory system and read/write through it, run a
// reliability campaign, or run a performance comparison. Anything more
// specialised is available from the internal packages within this module;
// see the examples/ directory for runnable walkthroughs of both levels.
package xedsim

import (
	"context"

	"xedsim/internal/core"
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/faultsim"
	"xedsim/internal/memsim"
)

// OnDieCode selects the per-chip On-Die ECC code.
type OnDieCode int

const (
	// CRC8ATM is the paper's recommended on-die code (§V-E): SECDED
	// plus 100% detection of bursts up to 8 bits.
	CRC8ATM OnDieCode = iota
	// Hamming is the conventional extended Hamming SECDED baseline.
	Hamming
)

func (c OnDieCode) build() func() ecc.Code64 {
	switch c {
	case Hamming:
		return func() ecc.Code64 { return ecc.NewHamming() }
	default:
		return func() ecc.Code64 { return ecc.NewCRC8ATM() }
	}
}

// System is an XED-protected 9-chip memory rank: the headline
// configuration of the paper. It corrects any single-chip failure, all
// scaling faults, and diagnoses on-die detection misses.
type System struct {
	ctrl *core.Controller
}

// Config parameterises a System.
type Config struct {
	// Geometry of each chip; zero value selects the paper's 2Gb part.
	Geometry dram.Geometry
	// OnDie selects the on-die code (default CRC8ATM).
	OnDie OnDieCode
	// ScalingFaultRate injects birthtime weak cells at this per-bit
	// rate (§VII uses 1e-4). Zero disables.
	ScalingFaultRate float64
	// Seed drives catch-word generation and scaling-fault placement.
	Seed uint64
}

// NewSystem builds an XED system. The zero Config is valid; an invalid
// Geometry is an error.
func NewSystem(cfg Config) (*System, error) {
	geom := cfg.Geometry
	if geom == (dram.Geometry{}) {
		geom = dram.DefaultGeometry()
	}
	rank, err := dram.NewRank(9, geom, cfg.OnDie.build())
	if err != nil {
		return nil, err
	}
	if cfg.ScalingFaultRate > 0 {
		for i := 0; i < rank.Chips(); i++ {
			rank.Chip(i).SetScaling(dram.ScalingProfile{
				Rate: cfg.ScalingFaultRate,
				Seed: cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15,
			})
		}
	}
	return &System{ctrl: core.NewController(rank, cfg.Seed)}, nil
}

// Write stores a 64-byte cache line at the address.
func (s *System) Write(addr dram.WordAddr, line core.Line) { s.ctrl.WriteLine(addr, line) }

// Read fetches a cache line through the full XED correction hierarchy.
func (s *System) Read(addr dram.WordAddr) core.ReadResult { return s.ctrl.ReadLine(addr) }

// InjectFault adds a runtime fault to chip (0..8; 8 is the parity chip).
func (s *System) InjectFault(chip int, f dram.Fault) { s.ctrl.Rank().InjectChipFailure(chip, f) }

// Controller exposes the underlying XED controller for detailed
// inspection (stats, FCT, catch-words).
func (s *System) Controller() *core.Controller { return s.ctrl }

// Stats returns the controller's activity counters.
func (s *System) Stats() core.Stats { return s.ctrl.Stats() }

// ReliabilityConfig re-exports the Monte-Carlo simulator configuration.
type ReliabilityConfig = faultsim.Config

// ReliabilityReport re-exports the campaign report.
type ReliabilityReport = faultsim.Report

// DefaultReliabilityConfig is the paper's §III evaluation system.
func DefaultReliabilityConfig() ReliabilityConfig { return faultsim.DefaultConfig() }

// CampaignOptions re-exports the resilient campaign engine's options: the
// trial count, seed and worker count, the checkpoint path that is the
// run's resume point, and progress and metrics hooks.
type CampaignOptions = faultsim.CampaignOptions

// RunReliability executes a Monte-Carlo reliability campaign over the
// paper's six protection organisations (Figures 1, 7, 8, 9, 10).
func RunReliability(cfg ReliabilityConfig, trials int, seed uint64) (*ReliabilityReport, error) {
	return faultsim.Run(cfg, faultsim.AllSchemes(), trials, seed, 0)
}

// RunReliabilityCampaign is RunReliability through the resilient engine:
// ctx cancellation drains workers and returns the partial report, a
// checkpoint in opts resumes and saves the campaign, and panicking trials
// are voided up to a fixed budget.
func RunReliabilityCampaign(ctx context.Context, cfg ReliabilityConfig, opts CampaignOptions) (*ReliabilityReport, error) {
	return faultsim.RunCampaign(ctx, cfg, faultsim.AllSchemes(), opts)
}

// PerformanceComparison re-exports the memsim experiment result.
type PerformanceComparison = memsim.Comparison

// RunPerformance executes the cycle-level simulator over the paper's
// workload list for the given schemes (Figures 11-14). instrPerCore
// trades fidelity for runtime; 300k is a sensible floor, the paper's
// slices are 1B. ctx cancellation abandons the remaining runs and returns
// ctx's error.
func RunPerformance(ctx context.Context, schemes []memsim.SchemeConfig, instrPerCore int64, seed uint64) (*PerformanceComparison, error) {
	return memsim.RunComparison(ctx, memsim.PaperWorkloads(), schemes, instrPerCore, seed, 0)
}

// Figure11Schemes returns the scheme set of Figures 11 and 12, baseline
// first.
func Figure11Schemes() []memsim.SchemeConfig {
	return []memsim.SchemeConfig{
		memsim.SECDEDScheme(),
		memsim.XEDScheme(),
		memsim.ChipkillScheme(),
		memsim.XEDChipkillScheme(),
		memsim.DoubleChipkillScheme(),
	}
}

// Fleet is the multi-channel functional memory system: the paper's
// 4-channel dual-rank configuration with one XED controller per rank and a
// physical address map over the whole capacity.
type Fleet = core.MemorySystem

// FleetConfig re-exports the fleet configuration.
type FleetConfig = core.MemorySystemConfig

// NewFleet builds an address-mapped, XED-protected memory fleet. A zero
// Geometry selects the paper's 2Gb part; Channels/RanksPerChannel default
// to the Table V system (4x2). Invalid shapes are an error.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Channels == 0 {
		cfg.Channels = 4
	}
	if cfg.RanksPerChannel == 0 {
		cfg.RanksPerChannel = 2
	}
	if cfg.Geometry == (dram.Geometry{}) {
		cfg.Geometry = dram.DefaultGeometry()
	}
	return core.NewMemorySystem(cfg)
}
