package fleet

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/faultsim"
	"xedsim/internal/infer"
)

// harpProfileVerdict is the HARP retirement verdict as a profiling pass
// reaches it, the oracle for retireEnd's closed form: at the record's
// first scrub tick, a fresh CRC8-ATM chip holding only the record's fault
// is profiled by infer.ProfileChip at the record's word (bit and word
// faults) or at columns 0, 1, mid and last of its row (row faults), with
// two random rounds seeded by profSeed, and the row is retired if any
// probe word is at risk.
func harpProfileVerdict(cfg *Config, r *faultsim.FaultRecord, profSeed uint64) (end float64, retired bool) {
	tick := nextScrubTick(r.Start, cfg.ScrubIntervalHours)
	if tick >= r.End {
		return 0, false // gone (or out of horizon) before profiling
	}
	chip := dram.NewChip(cfg.Geom, ecc.NewCRC8ATM())
	chip.InjectFault(r.Range)
	var addrs []dram.WordAddr
	switch r.Gran {
	case dram.GranBit, dram.GranWord:
		addrs = append(addrs, dram.WordAddr{Bank: r.Range.Bank, Row: r.Range.Row, Col: r.Range.Col})
	case dram.GranRow:
		for _, col := range [4]int{0, 1, cfg.Geom.ColsPerRow / 2, cfg.Geom.ColsPerRow - 1} {
			a := dram.WordAddr{Bank: r.Range.Bank, Row: r.Range.Row, Col: col}
			if len(addrs) == 0 || addrs[len(addrs)-1] != a {
				addrs = append(addrs, a)
			}
		}
	}
	prof := infer.ProfileChip(chip, addrs, infer.HARPOptions{Rounds: 2, Seed: profSeed})
	if len(prof.PredictAtRisk()) == 0 {
		return 0, false
	}
	return tick, true
}

// harpSeed derives a record's profiling seed from the fleet seed, the DIMM
// and the record's index, independent of worker scheduling and of the
// trial RNG.
func harpSeed(seed uint64, dimm, idx int) uint64 {
	x := seed ^ uint64(dimm)*0x9e3779b97f4a7c15 ^ uint64(idx)*0xbf58476d1ce4e5b9
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// harpWorker builds a worker deciding the HARP policy for cfg.
func harpWorker(t testing.TB, cfg Config, seed uint64) *fleetWorker {
	t.Helper()
	cfg.Policy = Policy{Kind: PolicyHARP}
	return testWorker(t, &cfg, seed)
}

// checkHARPVerdict fails t unless retireEnd and the profile agree on r.
func checkHARPVerdict(t *testing.T, w *fleetWorker, r *faultsim.FaultRecord, profSeed uint64) (retired bool) {
	t.Helper()
	end, retired := w.retireEnd(r, w.cfg.ScrubIntervalHours)
	wantEnd, want := harpProfileVerdict(w.cfg, r, profSeed)
	if retired != want || end != wantEnd {
		t.Fatalf("record %+v: retireEnd = (%v, %v), profile = (%v, %v)", r, end, retired, wantEnd, want)
	}
	return retired
}

// TestHARPVerdictMatchesProfile holds the closed-form HARP verdict to the
// profiling pass it replaces, on every retirable record a fleet draws. In
// the tiny 2x8x4 geometry a row's four probe columns are the whole row;
// the 1-hour scrub divides the horizon, so a permanent record that starts
// in the final hour meets its first tick exactly at its End; and with the
// on-die code modelled, half the word faults are silent, which the verdict
// must not spare.
func TestHARPVerdictMatchesProfile(t *testing.T) {
	for _, onDie := range []bool{false, true} {
		cfg := testConfig(1_000_000)
		cfg.SilentWordFraction = 0.5
		cfg.Geom = dram.Geometry{Banks: 2, RowsPerBank: 8, ColsPerRow: 4}
		cfg.OnDie = onDie
		cfg.ScrubIntervalHours = 1
		const seed = 3
		w := harpWorker(t, cfg, seed)
		var seen [dram.NumGranularities]int
		var transients, silent, retired int
		for c, lo := 0, 0; lo < cfg.DIMMs; c, lo = c+1, lo+DefaultChunkSize {
			hi := min(lo+DefaultChunkSize, cfg.DIMMs)
			w.scanChunk(c, lo, hi, func(int, int) {},
				func(d int, recs []faultsim.FaultRecord) bool {
					for i := range recs {
						r := &recs[i]
						if !retirableGran(r.Gran) {
							continue
						}
						seen[r.Gran]++
						if r.Transient {
							transients++
						}
						if r.Silent {
							silent++
						}
						if checkHARPVerdict(t, w, r, harpSeed(seed, d, i)) {
							retired++
						}
					}
					return true
				})
		}
		t.Logf("on-die %v: records by granularity %v, %d transient, %d silent, %d retired",
			onDie, seen, transients, silent, retired)
		for _, g := range []dram.Granularity{dram.GranBit, dram.GranWord, dram.GranRow} {
			if seen[g] == 0 {
				t.Errorf("on-die %v: no %v records drawn; test has no power", onDie, g)
			}
		}
		if transients == 0 || retired == 0 || (onDie && silent == 0) {
			t.Errorf("on-die %v: %d transient, %d silent and %d retired records; test has no power",
				onDie, transients, silent, retired)
		}
	}
}

// FuzzHARPVerdictVsProfile holds the closed-form HARP verdict to the
// profiling pass on records built straight from the dram constructors,
// with any transient flag and active interval: including the ones a fleet
// never draws, such as a transient still live after its first scrub.
func FuzzHARPVerdictVsProfile(f *testing.F) {
	cfg := DefaultConfig()
	w := harpWorker(f, cfg, 0)
	geom := cfg.Geom
	f.Fuzz(func(t *testing.T, kind, bit uint8, dataMask uint64, checkMask uint8, seed uint64, transient bool, start, end float64) {
		if !(start >= 0 && start < end) {
			t.Skip("want an interval 0 <= start < end")
		}
		a := dram.WordAddr{
			Bank: int(seed % uint64(geom.Banks)),
			Row:  int((seed >> 16) % uint64(geom.RowsPerBank)),
			Col:  int((seed >> 40) % uint64(geom.ColsPerRow)),
		}
		var fault dram.Fault
		switch kind % 3 {
		case 0:
			fault = dram.NewBitFault(a, int(bit%72), transient)
		case 1:
			if dataMask == 0 && checkMask == 0 {
				t.Skip("a word fault needs a nonzero mask pair")
			}
			fault = dram.NewWordFault(a, dataMask, checkMask, transient)
		default:
			fault = dram.NewRowFault(a.Bank, a.Row, transient, seed)
		}
		r := faultsim.FaultRecord{Start: start, End: end, Gran: fault.Gran, Transient: transient, Range: fault}
		checkHARPVerdict(t, w, &r, harpSeed(seed, 0, 0))
	})
}
