// Command xedcodes regenerates the XED paper's code-strength tables and
// analytic figures:
//
//	xedcodes -experiment table2  # detection of random & burst errors (Hamming, CRC8-ATM, Hsiao)
//	xedcodes -experiment fig6    # catch-word collision probability over time
//	xedcodes -experiment table3  # likelihood of multiple catch-words per access
//	xedcodes -experiment table4  # SDC and DUE rates of XED
//	xedcodes -experiment all
package main

import (
	"flag"
	"fmt"

	"xedsim/internal/analysis"
	"xedsim/internal/cli"
	"xedsim/internal/ecc"
)

const cmd cli.Command = "xedcodes"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	experiment string
	samples    int
	seed       uint64
}

// validateArgs returns the message cmd.UsageErr should print, or nil. A
// non-positive -samples would make the Table II Monte-Carlo cells divide
// by zero, so it is rejected up front.
func validateArgs(a cliArgs) error {
	if a.samples <= 0 {
		return fmt.Errorf("-samples must be positive, got %d", a.samples)
	}
	switch a.experiment {
	case "all", "table2", "fig6", "table3", "table4":
	default:
		return fmt.Errorf("unknown experiment %q", a.experiment)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.experiment, "experiment", "all", "table2|fig6|table3|table4|all")
	flag.IntVar(&a.samples, "samples", 2_000_000, "Monte-Carlo samples per Table II cell (k >= 5)")
	flag.Uint64Var(&a.seed, "seed", 1, "random seed")
	cmd.Parse()
	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	switch a.experiment {
	case "all":
		table2(a.samples, a.seed)
		fmt.Println()
		fig6()
		fmt.Println()
		table3()
		fmt.Println()
		table4()
	case "table2":
		table2(a.samples, a.seed)
	case "fig6":
		fig6()
	case "table3":
		table3()
	case "table4":
		table4()
	}
}

func table2(samples int, seed uint64) {
	fmt.Println("Table II: detection-rate of random and burst errors")
	fmt.Println("(the paper compares Hamming and CRC8-ATM; the Hsiao column — the code")
	fmt.Println(" commercial DIMMs actually ship — is this repo's addition)")
	hamming := ecc.MeasureDetection(ecc.NewHamming(), samples, seed)
	crc := ecc.MeasureDetection(ecc.NewCRC8ATM(), samples, seed)
	hsiao := ecc.MeasureDetection(ecc.NewHsiao(), samples, seed)
	fmt.Printf("%-8s %-24s %-24s %-24s\n", "", "(72,64) Hamming", "(72,64) CRC8-ATM", "(72,64) Hsiao")
	fmt.Printf("%-8s %-11s %-12s %-11s %-12s %-11s %-12s\n", "errors", "random", "burst", "random", "burst", "random", "burst")
	for k := 1; k <= 8; k++ {
		fmt.Printf("%-8d %-11s %-12s %-11s %-12s %-11s %-12s\n", k,
			pct(hamming.Random[k-1]), pct(hamming.Burst[k-1]),
			pct(crc.Random[k-1]), pct(crc.Burst[k-1]),
			pct(hsiao.Random[k-1]), pct(hsiao.Burst[k-1]))
	}
	fmt.Printf("undetected multi-bit fraction: Hamming %.2g, CRC8-ATM %.2g, Hsiao %.2g (paper uses 0.8%%)\n",
		ecc.UndetectedMultiBitFraction(hamming), ecc.UndetectedMultiBitFraction(crc),
		ecc.UndetectedMultiBitFraction(hsiao))
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func fig6() {
	fmt.Println("Figure 6: probability of a catch-word collision over time")
	years := []float64{1, 2, 3, 4, 5, 6, 7, 100, 1e4, 1e6}
	configs := []struct {
		name  string
		model analysis.CollisionModel
	}{
		{"x8, 64-bit CW, write/4ns", analysis.X8Default()},
		{"x8, paper-calibrated", analysis.PaperCalibratedX8()},
		{"x4, 32-bit CW, write/4ns", analysis.X4Default()},
	}
	fmt.Printf("%-26s %14s", "configuration", "MTTC")
	for _, y := range years {
		fmt.Printf(" %8.0gy", y)
	}
	fmt.Println()
	for _, c := range configs {
		mttc := c.model.MeanTimeBetweenCollisionsYears()
		fmt.Printf("%-26s %11.3g yr", c.name, mttc)
		for _, p := range c.model.Curve(years) {
			fmt.Printf(" %9.2g", p)
		}
		fmt.Println()
	}
	fmt.Println("paper quotes: 3.2M years mean for x8 (calibrated row); ~6.6h for x4 devices")
}

func table3() {
	fmt.Println("Table III: likelihood of multiple catch-words per access")
	fmt.Printf("%-18s %-22s %-22s %-20s\n",
		"scaling-fault rate", "per 72-bit word", "per 8-bit beat chunk", "serial-mode interval")
	for _, rate := range []float64{1e-4, 1e-5, 1e-6} {
		word := analysis.TableIIIRow(rate, 72)
		beat := analysis.TableIIIRow(rate, 8)
		fmt.Printf("%-18.0e %-22.3g %-22.3g 1 per %.3g accesses\n",
			rate, word.Probability(), beat.Probability(), beat.SerialModeInterval())
	}
	fmt.Println("paper's Table III (2e-5, 2e-7, 2e-9) matches the per-beat convention;")
	fmt.Println("\"once every 200K accesses\" (§VII-B) likewise")
}

func table4() {
	fmt.Println("Table IV: SDC and DUE rates of XED over 7 years")
	v := analysis.DefaultXEDVulnerability()
	fmt.Printf("%-44s %s\n", "source of vulnerability", "rate over 7 years")
	fmt.Printf("%-44s %s\n", "XED: scaling-related faults", "no SDC or DUE (always corrected)")
	fmt.Printf("%-44s %.2g (SDC)   [paper: 1.4e-13]\n", "XED: row/column/bank failure (mis-diagnosis)", v.SDCProbability())
	fmt.Printf("%-44s %.2g (DUE)   [paper: 6.1e-06]\n", "XED: word failure (silent transient)", v.DUEProbability())
	fmt.Printf("%-44s %.2g        [paper: 7.7e-04]\n", "  ... transient word-fault probability", v.TransientWordProbability())
	fmt.Printf("%-44s %.2g        [paper: ~1e-12]\n", "  ... inter-line mis-identification prob.", v.MisidentificationProbability())
	mc := analysis.MultiChipLossProbability(25.8, 4.1, 9, 8, v.LifetimeHours, 168)
	fmt.Printf("%-44s %.2g        [paper: 5.8e-04]\n", "data loss from multi-chip failures (analytic)", mc)
}
