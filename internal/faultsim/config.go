package faultsim

import (
	"fmt"
	"math"

	"xedsim/internal/dram"
)

// HoursPerYear uses the Julian year, matching FaultSim's convention.
const HoursPerYear = 8766.0

// invHoursPerYear turns the per-failure year bucketing into a multiply.
// Every tally site must use the same expression: multiply and divide can
// round a boundary-straddling FailTime into different years, and the
// campaign's bit-identity with its scalar oracles compares bucketed
// tallies.
const invHoursPerYear = 1 / HoursPerYear

// Config describes the simulated memory system and fault environment. The
// defaults reproduce §III of the paper: 4 channels of dual-ranked 4GB
// DIMMs built from 2Gb x8 chips (9 per rank including the ECC chip),
// evaluated over 7 years.
type Config struct {
	// Channels, RanksPerChannel and ChipsPerRank fix the fleet layout.
	// Multi-rank faults span the ranks of one channel's DIMM.
	Channels        int
	RanksPerChannel int
	ChipsPerRank    int

	// Geom shapes fault address ranges.
	Geom dram.Geometry

	// LifetimeHours is the evaluation period (7 years by default).
	LifetimeHours float64

	// ScrubIntervalHours bounds how long a transient fault stays live:
	// a patrol scrub rewrites corrected data, clearing the upset.
	ScrubIntervalHours float64

	// FITs is the per-chip fault-rate table.
	FITs FITTable

	// OnDie enables per-chip On-Die ECC: single-bit faults are absorbed
	// inside the chip, and word-or-larger faults are *detected* on-die
	// with probability 1-SilentWordFraction.
	OnDie bool

	// SilentWordFraction is the chance a multi-bit word error escapes
	// the on-die code (0.8% for CRC8-ATM / Hamming per Table II).
	SilentWordFraction float64

	// ScalingRate is the birthtime weak-bit rate (10^-4 in §VII). With
	// On-Die ECC these faults are always corrected and only matter for
	// catch-word traffic; without it they are immediately fatal.
	ScalingRate float64

	// Aging shapes the fault rate over the lifetime (bathtub curve).
	// The zero value and FlatAging() reproduce the paper's constant
	// Table I rates.
	Aging AgingProfile

	// RequireAddressOverlap, when true, only counts two faults as a
	// compound failure if their address ranges intersect (the precise
	// FaultSim criterion). The paper's headline numbers use the
	// conservative domain-level criterion (false): two concurrently
	// faulty chips in one protection domain defeat a single-erasure
	// scheme regardless of address. The ablation bench sweeps this.
	RequireAddressOverlap bool
}

// DefaultConfig reproduces the paper's evaluation system.
func DefaultConfig() Config {
	return Config{
		Channels:           4,
		RanksPerChannel:    2,
		ChipsPerRank:       9,
		Geom:               dram.DefaultGeometry(),
		LifetimeHours:      7 * HoursPerYear,
		ScrubIntervalHours: 24 * 7, // weekly patrol scrub
		FITs:               TableI(),
		OnDie:              true,
		SilentWordFraction: 0.008,
		ScalingRate:        0,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Channels <= 0 || c.RanksPerChannel <= 0 || c.ChipsPerRank <= 0 {
		return fmt.Errorf("faultsim: non-positive fleet dimension in %+v", c)
	}
	if c.LifetimeHours <= 0 || c.ScrubIntervalHours <= 0 {
		return fmt.Errorf("faultsim: non-positive time parameter")
	}
	if len(c.FITs) == 0 {
		return fmt.Errorf("faultsim: empty FIT table")
	}
	for _, cls := range c.FITs {
		if math.IsNaN(float64(cls.Rate)) || math.IsInf(float64(cls.Rate), 0) || cls.Rate < 0 {
			return fmt.Errorf("faultsim: invalid FIT rate %v for granularity %v", cls.Rate, cls.Gran)
		}
	}
	if c.SilentWordFraction < 0 || c.SilentWordFraction > 1 {
		return fmt.Errorf("faultsim: silent fraction %v out of range", c.SilentWordFraction)
	}
	if math.IsNaN(c.ScalingRate) || c.ScalingRate < 0 || c.ScalingRate > 1 {
		return fmt.Errorf("faultsim: scaling rate %v out of range", c.ScalingRate)
	}
	if err := c.Aging.validate(); err != nil {
		return err
	}
	return c.Geom.Validate()
}

// TotalChips returns the fleet size.
func (c *Config) TotalChips() int { return c.Channels * c.RanksPerChannel * c.ChipsPerRank }

// Ranks returns the number of ranks in the fleet.
func (c *Config) Ranks() int { return c.Channels * c.RanksPerChannel }
