package memsim

// Micron TN-41-01 "Calculating Memory System Power for DDR3" current-based
// power model (§X: "USIMM is configured with the power parameters from
// industrial 2Gb x8-DRAM chips"). Energy is accumulated per rank from the
// simulator's activity counters; On-Die ECC scales the background,
// activate and refresh currents by 12.5% for the extra cell array.

// IDDProfile is the datasheet current set in milliamps, plus VDD.
type IDDProfile struct {
	VDD   float64 // volts
	IDD0  float64 // one-bank activate-precharge
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5B float64 // burst refresh
}

// Micron2GbX8 matches a DDR3-1600 2Gb x8 part.
func Micron2GbX8() IDDProfile {
	return IDDProfile{
		VDD:   1.5,
		IDD0:  95,
		IDD2N: 42,
		IDD3N: 45,
		IDD4R: 180,
		IDD4W: 185,
		IDD5B: 215,
	}
}

// ChipsPerRank on every evaluated organisation: nine (the ECC-DIMM rank).
const ChipsPerRank = 9

// PowerBreakdown reports average memory power in watts by component.
type PowerBreakdown struct {
	Background float64
	Activate   float64
	ReadWrite  float64
	Refresh    float64
}

// Total sums the components.
func (p PowerBreakdown) Total() float64 {
	return p.Background + p.Activate + p.ReadWrite + p.Refresh
}

// computePower converts per-rank activity counters into average watts over
// the simulated interval.
func (s *Simulator) computePower() PowerBreakdown {
	idd := Micron2GbX8()
	t := &s.cfg.Timing
	ondie := s.cfg.Scheme.OnDieECCCurrentFactor
	if ondie == 0 {
		ondie = 1
	}
	tckSec := t.TCK * 1e-9
	cycles := float64(s.now)
	interval := cycles * tckSec

	var p PowerBreakdown
	for _, ch := range s.channels {
		for r := range ch.ranks {
			rank := &ch.ranks[r]
			active := float64(rank.activeCycles)
			if active > cycles {
				active = cycles
			}
			idle := cycles - active

			// Background: active standby vs precharge standby, in
			// mA·cycles.
			bgCharge := (idd.IDD3N*active + idd.IDD2N*idle) * ondie
			// Activate/precharge energy above the standby floor.
			actCharge := (idd.IDD0*float64(t.TRC) -
				(idd.IDD3N*float64(t.TRAS) + idd.IDD2N*float64(t.TRC-t.TRAS))) *
				float64(rank.activates) * ondie
			if actCharge < 0 {
				actCharge = 0
			}
			// Burst read/write above active standby.
			rwCharge := (idd.IDD4R-idd.IDD3N)*float64(rank.readCycles) +
				(idd.IDD4W-idd.IDD3N)*float64(rank.writeCycles)
			// Refresh above standby.
			refCharge := (idd.IDD5B - idd.IDD3N) * float64(t.TRFC) * float64(rank.refreshes) * ondie

			// mA·cycles -> watts: x VDD x tCK / interval, x chips, /1000.
			scale := idd.VDD * tckSec / interval * ChipsPerRank / 1000
			p.Background += bgCharge * scale
			p.Activate += actCharge * scale
			p.ReadWrite += rwCharge * scale
			p.Refresh += refCharge * scale
		}
	}
	return p
}
