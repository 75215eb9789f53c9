// Command xedmemsim regenerates the XED paper's performance and power
// figures with the USIMM-style cycle-level simulator:
//
//	xedmemsim -experiment fig11  # normalised execution time per workload
//	xedmemsim -experiment fig12  # normalised memory power per workload
//	xedmemsim -experiment fig13  # extra-burst / extra-transaction alternatives
//	xedmemsim -experiment fig14  # LOT-ECC vs XED per suite
//	xedmemsim -experiment all
//
// -instr sets instructions per core (the paper uses 1B Pinpoints slices;
// the default keeps runs interactive while preserving the relative
// orderings, which is what the figures report).
//
// SIGINT/SIGTERM cancels the in-flight comparison: workers drain at the
// next cycle-batch boundary and the process exits nonzero without printing
// a partially filled matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"

	"xedsim/internal/cli"
	"xedsim/internal/memsim"
)

const cmd cli.Command = "xedmemsim"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	experiment string
	instr      int64
	seed       uint64
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.instr <= 0 {
		return fmt.Errorf("-instr must be positive, got %d", a.instr)
	}
	switch a.experiment {
	case "all", "fig11", "fig12", "fig13", "fig14":
	default:
		return fmt.Errorf("unknown experiment %q", a.experiment)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.experiment, "experiment", "all", "fig11|fig12|fig13|fig14|all")
	flag.Int64Var(&a.instr, "instr", 150_000, "instructions per core")
	flag.Uint64Var(&a.seed, "seed", 7, "random seed")
	prof := cli.RegisterProfile(flag.CommandLine)
	cmd.Parse()
	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	if err := prof.Start(); err != nil {
		cmd.Fatal(err)
	}
	var err error
	switch a.experiment {
	case "all":
		if err = fig1112(ctx, a); err == nil {
			fmt.Println()
			err = fig13(ctx, a)
		}
		if err == nil {
			fmt.Println()
			err = fig14(ctx, a)
		}
	case "fig11", "fig12":
		err = fig1112(ctx, a)
	case "fig13":
		err = fig13(ctx, a)
	case "fig14":
		err = fig14(ctx, a)
	}
	if perr := prof.Stop(); perr != nil {
		cmd.Fatal(perr)
	}
	if errors.Is(err, context.Canceled) {
		err = errors.New("interrupted; partial results discarded")
	}
	if err != nil {
		cmd.Fatal(err)
	}
}

func fig1112(ctx context.Context, a cliArgs) error {
	schemes := []memsim.SchemeConfig{
		memsim.SECDEDScheme(),
		memsim.XEDScheme(),
		memsim.ChipkillScheme(),
		memsim.XEDChipkillScheme(),
		memsim.DoubleChipkillScheme(),
	}
	cmp, err := memsim.RunComparison(ctx, memsim.PaperWorkloads(), schemes, a.instr, a.seed, 0)
	if err != nil {
		return err
	}

	fmt.Println("Figure 11: normalised execution time (vs ECC-DIMM SECDED)")
	printMatrix(cmp, cmp.NormalizedTime)
	fmt.Printf("paper gmeans: XED 1.00, Chipkill 1.21, XED+Chipkill 1.21, Double-Chipkill 1.82\n\n")

	fmt.Println("Figure 12: normalised memory power (vs ECC-DIMM SECDED)")
	printMatrix(cmp, cmp.NormalizedPower)
	fmt.Println("paper gmeans: XED 1.00, Chipkill 0.92, Double-Chipkill 1.084")
	fmt.Println("(our model charges the overfetched line's transfer energy; see EXPERIMENTS.md)")
	return nil
}

func printMatrix(cmp *memsim.Comparison, metric func(w, s int) float64) {
	fmt.Printf("%-12s", "workload")
	for s := 1; s < len(cmp.Schemes); s++ {
		fmt.Printf(" %10.10s", cmp.Schemes[s].Name)
	}
	fmt.Println()
	for w := range cmp.Workloads {
		fmt.Printf("%-12s", cmp.Workloads[w].Name)
		for s := 1; s < len(cmp.Schemes); s++ {
			fmt.Printf(" %10.3f", metric(w, s))
		}
		fmt.Println()
	}
	fmt.Printf("%-12s", "Gmean")
	for s := 1; s < len(cmp.Schemes); s++ {
		sum, n := 0.0, 0
		for w := range cmp.Workloads {
			sum += logOf(metric(w, s))
			n++
		}
		fmt.Printf(" %10.3f", expOf(sum/float64(n)))
	}
	fmt.Println()
}

func fig13(ctx context.Context, a cliArgs) error {
	schemes := []memsim.SchemeConfig{
		memsim.SECDEDScheme(),
		memsim.XEDScheme(),
		memsim.ExtraBurstChipkill(),
		memsim.ExtraTransactionChipkill(),
		memsim.XEDChipkillScheme(),
		memsim.ExtraBurstDoubleChipkill(),
		memsim.ExtraTransactionDoubleChipkill(),
	}
	cmp, err := memsim.RunComparison(ctx, memsim.PaperWorkloads(), schemes, a.instr, a.seed, 0)
	if err != nil {
		return err
	}
	fmt.Println("Figure 13: exposing On-Die ECC via extra burst / extra transaction")
	fmt.Printf("%-42s %14s %14s\n", "scheme", "exec time", "memory power")
	for s := 1; s < len(schemes); s++ {
		fmt.Printf("%-42s %14.3f %14.3f\n", schemes[s].Name, cmp.GmeanTime(s), cmp.GmeanPower(s))
	}
	fmt.Println("paper: both alternatives cost measurably more time and power than the")
	fmt.Println("catch-word (XED) implementations at each protection level")
	return nil
}

func fig14(ctx context.Context, a cliArgs) error {
	schemes := []memsim.SchemeConfig{
		memsim.SECDEDScheme(),
		memsim.XEDScheme(),
		memsim.LOTECCScheme(),
		memsim.MultiECCScheme(),
	}
	cmp, err := memsim.RunComparison(ctx, memsim.PaperWorkloads(), schemes, a.instr, a.seed, 0)
	if err != nil {
		return err
	}
	fmt.Println("Figure 14: LOT-ECC (write-coalescing) vs XED, per suite")
	fmt.Println("(plus the Multi-ECC checksum-RMW scheme of §XII-A for context)")
	fmt.Printf("%-12s %12s %12s %12s\n", "suite", "XED", "LOT-ECC", "Multi-ECC")
	for _, suite := range memsim.SuiteNames() {
		fmt.Printf("%-12s %12.3f %12.3f %12.3f\n", suite,
			cmp.SuiteGmeanTime(1, suite), cmp.SuiteGmeanTime(2, suite), cmp.SuiteGmeanTime(3, suite))
	}
	fmt.Printf("%-12s %12.3f %12.3f %12.3f\n", "GMEAN", cmp.GmeanTime(1), cmp.GmeanTime(2), cmp.GmeanTime(3))
	fmt.Printf("paper: LOT-ECC is 6.6%% slower than XED overall\n")
	return nil
}

func logOf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log(v)
}

func expOf(v float64) float64 { return math.Exp(v) }
