package memsim

import (
	"context"
	"strconv"
	"testing"
)

// XEDSchemeWithSerialMode is XED with serial-mode episodes forced every n
// reads, for quantifying §XI-A's "overheads ... happen only on receiving
// multiple Catch-Words ... once every 200K accesses".
func XEDSchemeWithSerialMode(n int) SchemeConfig {
	s := XEDScheme()
	s.Name = "XED (serial mode 1/" + strconv.Itoa(n) + ")"
	s.SerialModeEvery = n
	return s
}

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

func TestUtilizationMetrics(t *testing.T) {
	w := mustWorkload(t, "stream")
	res := New(quickCfg(w, XEDScheme())).Run()
	if res.Activates == 0 || res.BusCycles == 0 {
		t.Fatalf("metrics missing: %+v", res)
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
