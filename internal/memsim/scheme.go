package memsim

// SchemeConfig describes how one reliability scheme maps a cache-line
// access onto DRAM resources — the lever behind every Figure 11-14 result.
type SchemeConfig struct {
	Name string

	// RanksPerAccess is how many ranks of each involved channel one
	// access activates in lockstep. 1 for SECDED/XED; 2 for x8 Chipkill
	// and XED-on-Chipkill ("activating two ranks", §I).
	RanksPerAccess int

	// ChannelsPerAccess gangs adjacent channels: 2 for Double-Chipkill
	// ("36 DRAM-chips by activating four ranks", §XI-A).
	ChannelsPerAccess int

	// BurstCyclesPerRank is the data-bus occupancy contributed by each
	// ganged rank. BL8 = 4; the §XI-C "extra burst" alternative uses 5
	// (burst length 10). Ganged ranks share the channel bus, so an
	// access's total bus time is RanksPerAccess x this.
	BurstCyclesPerRank int

	// ExtraReadPerRead issues a companion row-hit read for every demand
	// read — the §XI-C "additional transaction" alternative that
	// fetches the On-Die ECC separately.
	ExtraReadPerRead bool

	// ExtraWritePerWrite issues a companion write per demand write with
	// the given probability — LOT-ECC's tier-2 checksum update (§XII-A;
	// 0.5 models its write-coalescing variant).
	ExtraWritePerWrite float64

	// ExtraReadPerWrite issues a companion read per demand write — the
	// read-modify-write a checksum scheme like Multi-ECC [49] needs
	// before it can update its checksum (§XII-A).
	ExtraReadPerWrite bool

	// SerialModeEvery, when positive, makes every Nth demand read
	// trigger a serial-mode episode (§VII-B): the controller quiesces
	// the DIMM, toggles XED-Enable over MRS and re-reads — modelled as
	// two additional row-hit reads. The paper's rate is once per ~200K
	// accesses at a 1e-4 scaling rate; the ablation bench sweeps this.
	SerialModeEvery int

	// OnDieECCCurrentFactor scales DRAM background/activate/refresh
	// currents; On-Die ECC needs 12.5% more cells per die (§X).
	OnDieECCCurrentFactor float64

	// CorrectionCycles is added to every read's completion latency for
	// the controller-side decode (1 for syndrome checks, 4 for SECDED
	// correction, 60 for erasure codes per §X — in core cycles; the
	// simulator converts).
	CorrectionCycles int
}

// The eight configurations of §XI. Correction latencies follow §X: 1 core
// cycle for detection, 4 for SECDED-style correction at the controller,
// 60 (conservative) for erasure decodes — charged on every read for the
// schemes that decode on every read (Chipkill variants), and on no reads
// for XED/SECDED whose common case is a clean pass-through.

// SECDEDScheme is the baseline every figure normalises to: one rank per
// access, BL8, no extras.
func SECDEDScheme() SchemeConfig {
	return SchemeConfig{
		Name: "SECDED", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, OnDieECCCurrentFactor: 1.125,
	}
}

// XEDScheme performs identically to SECDED on the common path: a single
// rank of 9 chips, no bandwidth overhead. Serial-mode episodes are so rare
// (once per ~200K accesses, §VII-B) that their cost is unmeasurable; the
// simulator still exposes them through SerialModeEvery for ablation.
// It equals SECDEDScheme in every field but Name, so RunComparison runs
// the two as one simulation per workload.
func XEDScheme() SchemeConfig {
	return SchemeConfig{
		Name: "XED (9 chips)", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, OnDieECCCurrentFactor: 1.125,
	}
}

// ChipkillScheme gangs one rank on each of two lockstepped channels: 18
// chips per access, two activates, and both channel buses carry a full
// line (100% overfetch). Independent channel count halves.
func ChipkillScheme() SchemeConfig {
	return SchemeConfig{
		Name: "Chipkill (18 chips)", RanksPerAccess: 1, ChannelsPerAccess: 2,
		BurstCyclesPerRank: 4, OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}

// XEDChipkillScheme — XED on Single-Chipkill hardware — has exactly
// Chipkill's resource footprint (18 chips over two ranks) but erasure
// decoding at the controller. It equals ChipkillScheme in every field but
// Name, so RunComparison runs the two as one simulation per workload.
func XEDChipkillScheme() SchemeConfig {
	return SchemeConfig{
		Name: "XED + Single Chipkill (18 chips)", RanksPerAccess: 1, ChannelsPerAccess: 2,
		BurstCyclesPerRank: 4, OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}

// DoubleChipkillScheme gangs both ranks of two lockstepped channels: 36
// chips, four activates, both buses busy for two back-to-back lines —
// quarter bandwidth ("activates two channels and consumes significantly
// more power", Fig. 12).
func DoubleChipkillScheme() SchemeConfig {
	return SchemeConfig{
		Name: "Double-Chipkill (36 chips)", RanksPerAccess: 2, ChannelsPerAccess: 2,
		BurstCyclesPerRank: 2, OnDieECCCurrentFactor: 1.125, CorrectionCycles: 1,
	}
}

// ExtraBurstChipkill is §XI-C's alternative: expose On-Die ECC by growing
// the burst from 8 to 10 beats on a single rank (Chipkill-level) — a 25%
// data-bus tax on every access.
func ExtraBurstChipkill() SchemeConfig {
	return SchemeConfig{
		Name: "Chipkill via extra burst", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 5, OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}

// ExtraBurstDoubleChipkill is the Double-Chipkill-level extra-burst variant
// (two ranks, burst 10 each).
func ExtraBurstDoubleChipkill() SchemeConfig {
	return SchemeConfig{
		Name: "Double-Chipkill via extra burst", RanksPerAccess: 2, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 5, OnDieECCCurrentFactor: 1.125, CorrectionCycles: 1,
	}
}

// ExtraTransactionChipkill fetches the On-Die ECC with a second (row-hit)
// read per demand read.
func ExtraTransactionChipkill() SchemeConfig {
	return SchemeConfig{
		Name: "Chipkill via extra transaction", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, ExtraReadPerRead: true,
		OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}

// ExtraTransactionDoubleChipkill is the Double-Chipkill-level variant.
func ExtraTransactionDoubleChipkill() SchemeConfig {
	return SchemeConfig{
		Name: "Double-Chipkill via extra transaction", RanksPerAccess: 2, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, ExtraReadPerRead: true,
		OnDieECCCurrentFactor: 1.125, CorrectionCycles: 1,
	}
}

// MultiECCScheme models Multi-ECC [49] (§XII-A): Chipkill-strength from x8
// chips using checksums for detection and parity for correction, at the
// cost of a read-modify-write on every demand write to keep the checksum
// current.
func MultiECCScheme() SchemeConfig {
	return SchemeConfig{
		Name: "Multi-ECC (checksum RMW)", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, ExtraWritePerWrite: 1.0, ExtraReadPerWrite: true,
		OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}

// LOTECCScheme models LOT-ECC with write coalescing (§XII-A, Figure 14):
// single-rank accesses like XED, but every write triggers a tier-2
// checksum update write about half the time after coalescing.
func LOTECCScheme() SchemeConfig {
	return SchemeConfig{
		Name: "LOT-ECC (write-coalescing)", RanksPerAccess: 1, ChannelsPerAccess: 1,
		BurstCyclesPerRank: 4, ExtraWritePerWrite: 0.5,
		OnDieECCCurrentFactor: 1.125, CorrectionCycles: 4,
	}
}
