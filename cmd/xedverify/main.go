// Command xedverify runs the conformance claim table: the XED paper's
// qualitative results encoded as machine-checkable assertions
// (internal/conformance). It prints one verdict line per claim and exits
// nonzero unless every claim is CONFIRMED:
//
//	xedverify                      # full table, CI defaults
//	xedverify -list                # print claim names and exit
//	xedverify -claims fig7/xed-over-secded-10x,table1/fit-inputs
//	xedverify -seed 7 -max-trials 4000000 -configs 200
//
// Statistical claims are decided by a sequential probability-ratio test
// over Monte-Carlo campaign batches — each claim consumes only as many
// trials as its margin needs — with -max-trials bounding the worst case.
// Exit status: 0 all claims confirmed, 1 any claim refuted, inconclusive
// or errored, 2 flag errors.
//
// With -coordinator the gate's campaigns run through an xedserver
// coordinator instead of local cores:
//
//	xedverify -coordinator http://host:7600
//
// Because the service's results are bit-identical to local runs, the same
// table at the same seeds must reach the same verdicts — this is how a
// deployed campaign service is certified.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xedsim/internal/cli"
	"xedsim/internal/conformance"
	"xedsim/internal/dist"
)

const cmd cli.Command = "xedverify"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	claims          string
	list            bool
	seed            uint64
	batch           int
	maxTrials       int
	configs         int
	trialsPerConfig int
	coordinator     string
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	if a.batch <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", a.batch)
	}
	if a.maxTrials < a.batch {
		return fmt.Errorf("-max-trials (%d) must be at least -batch (%d)", a.maxTrials, a.batch)
	}
	if a.configs <= 0 {
		return fmt.Errorf("-configs must be positive, got %d", a.configs)
	}
	if a.trialsPerConfig <= 0 {
		return fmt.Errorf("-trials-per-config must be positive, got %d", a.trialsPerConfig)
	}
	if a.claims != "" {
		if _, err := selectedClaims(a.claims); err != nil {
			return err
		}
	}
	return nil
}

// selectedClaims resolves the -claims list against the table.
func selectedClaims(list string) ([]conformance.Claim, error) {
	return conformance.SelectClaims(conformance.PaperClaims(), cli.SplitList(list))
}

func main() {
	def := conformance.DefaultOptions()
	var a cliArgs
	flag.StringVar(&a.claims, "claims", "", "comma-separated claim names (default: all; see -list)")
	flag.BoolVar(&a.list, "list", false, "print the claim table and exit")
	flag.Uint64Var(&a.seed, "seed", def.Seed, "root seed for campaigns and differential sweeps")
	flag.IntVar(&a.batch, "batch", def.Batch, "Monte-Carlo trials per sequential-test step")
	flag.IntVar(&a.maxTrials, "max-trials", def.MaxTrials, "trial budget per statistical claim")
	flag.IntVar(&a.configs, "configs", def.Configs, "random configs for the evaluator differential claim")
	flag.IntVar(&a.trialsPerConfig, "trials-per-config", def.TrialsPerConfig, "trials per differential config")
	flag.StringVar(&a.coordinator, "coordinator", "", "run campaigns through this xedserver coordinator URL instead of local cores")
	cmd.Parse()

	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}

	claims, err := selectedClaims(a.claims)
	if err != nil {
		cmd.UsageErr("%v", err) // unreachable after validateArgs; defensive
	}

	if a.list {
		for _, c := range claims {
			fmt.Printf("%-34s %-18s %s\n", c.Name, c.Ref, c.Doc)
		}
		return
	}

	opts := conformance.Options{
		Seed:            a.seed,
		Batch:           a.batch,
		MaxTrials:       a.maxTrials,
		Configs:         a.configs,
		TrialsPerConfig: a.trialsPerConfig,
	}
	if a.coordinator != "" {
		opts.Runner = dist.NewClient(a.coordinator, nil).Runner()
	}

	ctx, stop := cli.InterruptContext()
	defer stop()

	start := time.Now()
	verdicts := conformance.Run(ctx, claims, opts, func(v conformance.Verdict) {
		fmt.Println(formatVerdict(v))
	})

	confirmed := 0
	for _, v := range verdicts {
		if v.Status == conformance.Confirmed {
			confirmed++
		}
	}
	fmt.Printf("\n%d/%d claims confirmed in %v\n", confirmed, len(verdicts), time.Since(start).Round(time.Millisecond))
	if !conformance.AllConfirmed(verdicts) {
		os.Exit(1)
	}
}

// formatVerdict renders one claim's outcome as a single line:
//
//	CONFIRMED  fig7/xed-over-secded-10x   (§VII Fig. 7, 0.50s, 500000 trials, conf 1-1e-09)  P(XED)=...
func formatVerdict(v conformance.Verdict) string {
	conf := ""
	switch {
	case v.Confidence >= 1:
		conf = ", exhaustive"
	case v.Confidence > 0:
		conf = fmt.Sprintf(", err<=%.2g", 1-v.Confidence)
	}
	line := fmt.Sprintf("%-12s %-34s (%s, %.2fs, %d trials%s)",
		v.Status, v.Claim, v.Ref, v.Elapsed.Seconds(), v.Trials, conf)
	if v.Detail != "" {
		line += "  " + v.Detail
	}
	if v.Err != nil {
		line += "  error: " + v.Err.Error()
	}
	return line
}
