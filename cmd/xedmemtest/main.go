// Command xedmemtest is a memtest-style exerciser for the functional XED
// fleet: it walks classic test patterns across an address-mapped memory
// system, optionally injects faults mid-run, and reports every correction
// the controllers performed. It demonstrates — end to end, with
// real stored bits — that the paper's mechanism survives what it claims to
// survive.
//
//	xedmemtest                       # clean pass
//	xedmemtest -kill-chip 3          # kill chip 3 of every rank mid-test
//	xedmemtest -scaling 1e-4         # with birthtime weak cells
//	xedmemtest -rows 64 -passes 2
package main

import (
	"flag"
	"fmt"
	"os"

	"xedsim/internal/cli"
	"xedsim/internal/core"
	"xedsim/internal/dram"
)

const cmd cli.Command = "xedmemtest"

var patterns = []struct {
	name string
	fill func(addr uint64, beat int) uint64
}{
	{"zeros", func(uint64, int) uint64 { return 0 }},
	{"ones", func(uint64, int) uint64 { return ^uint64(0) }},
	{"addr-in-data", func(a uint64, b int) uint64 { return a ^ uint64(b)<<56 }},
	{"checker-55", func(uint64, int) uint64 { return 0x5555555555555555 }},
	{"checker-AA", func(uint64, int) uint64 { return 0xaaaaaaaaaaaaaaaa }},
	{"walking-1", func(a uint64, b int) uint64 { return 1 << uint((a>>6+uint64(b))%64) }},
}

func main() {
	rows := flag.Int("rows", 32, "rows per bank (test size)")
	banks := flag.Int("banks", 2, "banks per chip")
	killChip := flag.Int("kill-chip", -1, "chip (0-8) to fail in every rank after the first pattern")
	scaling := flag.Float64("scaling", 0, "scaling-fault rate per bit")
	passes := flag.Int("passes", 1, "test passes")
	seed := flag.Uint64("seed", 1, "seed")
	metricsJSON := flag.String("metrics-json", "", "write the fleet's final core.* metrics snapshot to this file as JSON")
	cmd.Parse()
	if *rows <= 0 || *banks <= 0 || *passes <= 0 {
		cmd.UsageErr("-rows, -banks and -passes must be positive")
	}
	if *killChip > 8 {
		cmd.UsageErr("-kill-chip must be in 0..8 (or negative for none)")
	}

	reg, done := cmd.Observe(false, *metricsJSON, "", nil)
	fleet, err := core.NewMemorySystem(core.MemorySystemConfig{
		Channels:         4,
		RanksPerChannel:  2,
		Geometry:         dram.Geometry{Banks: *banks, RowsPerBank: *rows, ColsPerRow: 128},
		ScalingFaultRate: *scaling,
		Seed:             *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xedmemtest: %v\n", err)
		os.Exit(2)
	}
	lines := fleet.Capacity() / 64
	fmt.Printf("%s — testing %d lines (%d KB)\n", fleet, lines, fleet.Capacity()>>10)

	failures := 0
	for pass := 0; pass < *passes; pass++ {
		for pi, p := range patterns {
			// Fill.
			for l := uint64(0); l < lines; l++ {
				addr := l << 6
				var line core.Line
				for b := range line {
					line[b] = p.fill(addr, b)
				}
				fleet.Write(addr, line)
			}
			// Mid-test chip kill after the first pattern of pass 0.
			if pass == 0 && pi == 0 && *killChip >= 0 {
				for ch := 0; ch < 4; ch++ {
					for rk := 0; rk < 2; rk++ {
						fleet.InjectChipFailure(ch, rk, *killChip,
							dram.NewChipFault(false, uint64(ch*2+rk)+77))
					}
				}
				fmt.Printf("  !! injected permanent failure of chip %d in all 8 ranks\n", *killChip)
			}
			// Verify.
			bad, dues := 0, 0
			for l := uint64(0); l < lines; l++ {
				addr := l << 6
				res := fleet.Read(addr)
				if res.Outcome == core.OutcomeDUE {
					dues++
					continue
				}
				for b := range res.Data {
					if res.Data[b] != p.fill(addr, b) {
						bad++
						break
					}
				}
			}
			st := fleet.TotalStats()
			fmt.Printf("  pass %d %-12s miscompares=%d DUEs=%d (cum: erasure=%d serial=%d diag=%d collisions=%d)\n",
				pass, p.name, bad, dues,
				st.ErasureCorrections, st.SerialCorrections, st.DiagCorrections, st.Collisions)
			failures += bad + dues
		}
	}
	fleet.AddMetrics(reg)
	done()
	if failures == 0 {
		fmt.Println("PASS: no miscompares, no uncorrectable errors")
		return
	}
	fmt.Printf("FAIL: %d bad lines\n", failures)
	os.Exit(1)
}
