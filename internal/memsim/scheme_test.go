package memsim

import (
	"context"
	"testing"
)

func TestSerialModeOverheadNegligibleAtPaperRate(t *testing.T) {
	// §XI-A: serial-mode episodes once per 200K accesses cost nothing
	// measurable. At the paper's rate the run sees at most a handful of
	// episodes; execution time must be within 0.2% of plain XED.
	w := mustWorkload(t, "libquantum")
	plain := New(quickCfg(w, XEDScheme())).Run()
	rare := New(quickCfg(w, XEDSchemeWithSerialMode(200_000))).Run()
	ratio := float64(rare.Cycles) / float64(plain.Cycles)
	if ratio > 1.002 {
		t.Fatalf("serial mode at paper rate costs %.4fx, want <= 1.002", ratio)
	}
	// Exaggerated to 1-in-100 it must become visible — proving the
	// mechanism is actually wired in.
	frequent := New(quickCfg(w, XEDSchemeWithSerialMode(100))).Run()
	if frequent.CompanionReads == 0 {
		t.Fatal("serial-mode companions not generated")
	}
	if float64(frequent.Cycles)/float64(plain.Cycles) < 1.005 {
		t.Fatalf("1-in-100 serial mode invisible (%d vs %d cycles)", frequent.Cycles, plain.Cycles)
	}
}

func TestMultiECCSlowerThanXEDOnWriteHeavyWorkload(t *testing.T) {
	// §XII-A: Multi-ECC's checksum read-modify-write makes it strictly
	// worse than both XED and LOT-ECC on write-heavy workloads.
	w := mustWorkload(t, "lbm")
	xed := New(quickCfg(w, XEDScheme())).Run()
	lot := New(quickCfg(w, LOTECCScheme())).Run()
	multi := New(quickCfg(w, MultiECCScheme())).Run()
	if multi.Cycles <= xed.Cycles {
		t.Fatalf("Multi-ECC (%d) should be slower than XED (%d)", multi.Cycles, xed.Cycles)
	}
	if multi.Cycles <= lot.Cycles {
		t.Fatalf("Multi-ECC (%d) should be slower than LOT-ECC (%d)", multi.Cycles, lot.Cycles)
	}
	if multi.CompanionReads == 0 || multi.CompanionWrites == 0 {
		t.Fatalf("Multi-ECC RMW traffic missing: %+v", multi)
	}
}

func TestSchemeNamesDistinct(t *testing.T) {
	schemes := []SchemeConfig{
		SECDEDScheme(), XEDScheme(), ChipkillScheme(), XEDChipkillScheme(),
		DoubleChipkillScheme(), ExtraBurstChipkill(), ExtraBurstDoubleChipkill(),
		ExtraTransactionChipkill(), ExtraTransactionDoubleChipkill(),
		LOTECCScheme(), MultiECCScheme(), XEDSchemeWithSerialMode(1000),
	}
	seen := map[string]bool{}
	for _, s := range schemes {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("duplicate or empty scheme name %q", s.Name)
		}
		seen[s.Name] = true
		if s.RanksPerAccess < 1 || s.ChannelsPerAccess < 1 || s.BurstCyclesPerRank < 1 {
			t.Fatalf("%s has degenerate resource shape: %+v", s.Name, s)
		}
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{0, "0"}, {7, "7"}, {200000, "200000"}} {
		if got := itoa(c.n); got != c.want {
			t.Fatalf("itoa(%d) = %q", c.n, got)
		}
	}
}

func TestClosePagePolicyCostsRowHits(t *testing.T) {
	// Closed-page trades row-hit latency for conflict latency: on a
	// high-locality workload it must raise the activation count and not
	// run faster.
	w := mustWorkload(t, "libquantum") // 93% row locality
	open := New(quickCfg(w, XEDScheme())).Run()
	cfg := quickCfg(w, XEDScheme())
	cfg.ClosePage = true
	closed := New(cfg).Run()
	if closed.Activates <= open.Activates {
		t.Fatalf("closed-page activates (%d) should exceed open-page (%d)",
			closed.Activates, open.Activates)
	}
	if closed.Cycles < open.Cycles {
		t.Fatalf("closed-page (%d cycles) should not beat open-page (%d) on a streaming workload",
			closed.Cycles, open.Cycles)
	}
	if open.RowHitRate() < 0.5 {
		t.Fatalf("open-page row-hit rate %v implausibly low for libquantum", open.RowHitRate())
	}
}

func TestUtilizationMetrics(t *testing.T) {
	w := mustWorkload(t, "stream")
	res := New(quickCfg(w, XEDScheme())).Run()
	if u := res.BusUtilization(); u <= 0 || u > 1 {
		t.Fatalf("bus utilization %v out of range", u)
	}
	if res.Activates == 0 || res.BusCycles == 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
	if h := res.RowHitRate(); h < 0 || h >= 1 {
		t.Fatalf("row-hit rate %v out of range", h)
	}
}

func TestDDR4TimingRuns(t *testing.T) {
	w := mustWorkload(t, "milc")
	cfg := quickCfg(w, XEDScheme())
	cfg.Timing = DDR42400()
	res := New(cfg).Run()
	if res.Cycles <= 0 || res.Power.Total() <= 0 {
		t.Fatalf("DDR4 run degenerate: %+v", res)
	}
	// Faster bus, same work: fewer bus cycles than wall cycles, sane
	// utilization.
	if u := res.BusUtilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
}

func TestFRFCFSBeatsStrictFCFS(t *testing.T) {
	// The reordering scheduler must outperform strict FCFS on a
	// mixed-locality workload — the justification for FR-FCFS.
	w := mustWorkload(t, "milc")
	fr := New(quickCfg(w, XEDScheme())).Run()
	cfg := quickCfg(w, XEDScheme())
	cfg.StrictFCFS = true
	fcfs := New(cfg).Run()
	if fcfs.Cycles <= fr.Cycles {
		t.Fatalf("strict FCFS (%d) should be slower than FR-FCFS (%d)", fcfs.Cycles, fr.Cycles)
	}
}

func TestPowerDownLowersBackgroundPower(t *testing.T) {
	// A light workload leaves ranks idle; CKE power-down must cut the
	// background component and may cost a little time (tXP wakes) under
	// either timing set, including DDR4's tXP longer than tCCD.
	for _, tc := range []struct {
		name   string
		timing Timing
	}{{"DDR3", DDR31600()}, {"DDR4", DDR42400()}} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustWorkload(t, "dealII")
			cfg := quickCfg(w, XEDScheme())
			cfg.Timing = tc.timing
			base := New(cfg).Run()
			cfg.PowerDown = true
			pd := New(cfg).Run()
			if pd.Power.Background >= base.Power.Background {
				t.Fatalf("power-down background %v should be below %v",
					pd.Power.Background, base.Power.Background)
			}
			ratio := float64(pd.Cycles) / float64(base.Cycles)
			if ratio > 1.10 {
				t.Fatalf("power-down cost %vx execution time", ratio)
			}
			if pd.Power.Total() >= base.Power.Total() {
				t.Fatalf("power-down total %v should beat %v", pd.Power.Total(), base.Power.Total())
			}
		})
	}
}

func TestRefreshCostsTime(t *testing.T) {
	// The no-refresh ablation: ~2-5% of cycles go to tRFC blackouts on
	// a memory-bound workload.
	w := mustWorkload(t, "stream")
	base := New(quickCfg(w, XEDScheme())).Run()
	cfg := quickCfg(w, XEDScheme())
	cfg.DisableRefresh = true
	noRef := New(cfg).Run()
	if noRef.Cycles >= base.Cycles {
		t.Fatalf("disabling refresh (%d) should speed up the run (%d)", noRef.Cycles, base.Cycles)
	}
	if noRef.Power.Refresh != 0 {
		t.Fatalf("refresh power %v with refresh disabled", noRef.Power.Refresh)
	}
	saved := 1 - float64(noRef.Cycles)/float64(base.Cycles)
	if saved > 0.15 {
		t.Fatalf("refresh overhead %v implausibly large", saved)
	}
}

// TestFig11CalibrationGuard pins the headline Figure 11 calibration so
// future scheduler or workload edits that break it fail loudly. Bands are
// generous; the CLI run in EXPERIMENTS.md carries the precise numbers.
func TestFig11CalibrationGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme sweep")
	}
	names := []string{"libquantum", "mcf", "gcc", "stream", "comm2", "milc", "omnetpp", "bwaves"}
	var ws []Workload
	for _, n := range names {
		w, _ := WorkloadByName(n)
		ws = append(ws, w)
	}
	schemes := []SchemeConfig{SECDEDScheme(), XEDScheme(), ChipkillScheme(), DoubleChipkillScheme()}
	cmp, err := RunComparison(context.Background(), ws, schemes, 100_000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := cmp.GmeanTime(1); g != 1 {
		t.Fatalf("XED gmean %v, want exactly 1", g)
	}
	if g := cmp.GmeanTime(2); g < 1.10 || g > 1.55 {
		t.Fatalf("Chipkill gmean %v drifted from the ~1.2-1.3 calibration (paper 1.21)", g)
	}
	if g := cmp.GmeanTime(3); g < 1.7 || g > 3.6 {
		t.Fatalf("Double-Chipkill gmean %v outside band (paper 1.82)", g)
	}
	// libquantum's Chipkill slowdown anchors the bandwidth model.
	if v := cmp.NormalizedTime(0, 2); v < 1.3 || v > 1.9 {
		t.Fatalf("libquantum Chipkill %v outside band (paper 1.635)", v)
	}
}
