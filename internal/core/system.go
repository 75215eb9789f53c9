package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

// MemorySystem is the fleet-level functional model: the paper's 4-channel,
// dual-rank configuration with one XED controller per rank and a physical
// address map over the whole capacity. Where Controller exercises one
// rank, MemorySystem is what an operating system or workload generator
// would program against.
type MemorySystem struct {
	mapper *dram.AddressMapper
	ctrls  [][]*Controller // [channel][rank]
	// scrubbed totals every ScrubAll pass so far.
	scrubbed scrubCounts
}

// MemorySystemConfig shapes the fleet.
type MemorySystemConfig struct {
	Channels        int
	RanksPerChannel int
	Geometry        dram.Geometry
	// Code builds each chip's on-die engine; nil selects CRC8-ATM.
	Code func() ecc.Code64
	// ScalingFaultRate seeds birthtime weak cells (0 disables).
	ScalingFaultRate float64
	Seed             uint64
}

// NewMemorySystem builds the fleet with per-rank XED controllers. It
// rejects invalid fleet shapes and geometries with an error.
func NewMemorySystem(cfg MemorySystemConfig) (*MemorySystem, error) {
	if cfg.Code == nil {
		cfg.Code = func() ecc.Code64 { return ecc.NewCRC8ATM() }
	}
	mapper, err := dram.NewMapper(cfg.Channels, cfg.RanksPerChannel, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	rng := simrand.New(cfg.Seed ^ 0x5347)
	m := &MemorySystem{mapper: mapper}
	for ch := 0; ch < cfg.Channels; ch++ {
		var row []*Controller
		for rk := 0; rk < cfg.RanksPerChannel; rk++ {
			rank, err := dram.NewRank(DataChips+1, cfg.Geometry, cfg.Code)
			if err != nil {
				return nil, err
			}
			if cfg.ScalingFaultRate > 0 {
				for i := 0; i < rank.Chips(); i++ {
					rank.Chip(i).SetScaling(dram.ScalingProfile{
						Rate: cfg.ScalingFaultRate,
						Seed: rng.Uint64(),
					})
				}
			}
			row = append(row, NewController(rank, rng.Uint64()))
		}
		m.ctrls = append(m.ctrls, row)
	}
	return m, nil
}

// Capacity returns the data capacity in bytes.
func (m *MemorySystem) Capacity() uint64 { return m.mapper.Bytes() }

// Mapper exposes the address map.
func (m *MemorySystem) Mapper() *dram.AddressMapper { return m.mapper }

// Controller returns the XED controller for (channel, rank).
func (m *MemorySystem) Controller(channel, rank int) *Controller {
	return m.ctrls[channel][rank]
}

// Write stores a cache line at a physical byte address (64B aligned; low
// bits ignored).
func (m *MemorySystem) Write(phys uint64, line Line) {
	loc := m.mapper.Decompose(phys)
	m.ctrls[loc.Channel][loc.Rank].WriteLine(loc.Addr, line)
}

// Read fetches a cache line by physical address through the full XED
// hierarchy of the owning rank.
func (m *MemorySystem) Read(phys uint64) ReadResult {
	loc := m.mapper.Decompose(phys)
	return m.ctrls[loc.Channel][loc.Rank].ReadLine(loc.Addr)
}

// InjectChipFailure injects a fault into one chip of one rank.
func (m *MemorySystem) InjectChipFailure(channel, rank, chip int, f dram.Fault) {
	m.ctrls[channel][rank].Rank().InjectChipFailure(chip, f)
}

// TotalStats sums controller counters across the fleet.
func (m *MemorySystem) TotalStats() Stats {
	var total Stats
	for _, row := range m.ctrls {
		for _, c := range row {
			s := c.Stats()
			total.Reads += s.Reads
			total.Writes += s.Writes
			total.CleanReads += s.CleanReads
			total.ErasureCorrections += s.ErasureCorrections
			total.SerialCorrections += s.SerialCorrections
			total.DiagCorrections += s.DiagCorrections
			total.DUEs += s.DUEs
			total.CatchWordsSeen += s.CatchWordsSeen
			total.Collisions += s.Collisions
			total.CatchWordUpdates += s.CatchWordUpdates
			total.InterLineRuns += s.InterLineRuns
			total.IntraLineRuns += s.IntraLineRuns
			total.FCTChipMarks += s.FCTChipMarks
		}
	}
	return total
}

// ScrubAll runs one full patrol pass over every rank and returns the
// total DUE count encountered.
func (m *MemorySystem) ScrubAll() int {
	var pass scrubCounts
	for _, row := range m.ctrls {
		for _, c := range row {
			pass.add(c.scrub())
		}
	}
	m.scrubbed.add(pass)
	return int(pass.dues)
}

// String summarises the fleet.
func (m *MemorySystem) String() string {
	return fmt.Sprintf("MemorySystem(%d channels x %d ranks x 9 chips, %d MB)",
		len(m.ctrls), len(m.ctrls[0]), m.Capacity()>>20)
}
