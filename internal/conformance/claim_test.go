package conformance

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
	"xedsim/internal/simrand"
)

// testOptions returns reduced budgets for -short (and the -race job):
// exhaustive and differential claims shrink their sweeps, statistical
// claims keep the same boundaries but cap the trial budget. Full budgets
// run in the plain CI test job and in cmd/xedverify itself.
func testOptions(t *testing.T) Options {
	o := DefaultOptions()
	if testing.Short() {
		o.Batch = 100_000
		o.MaxTrials = 4_000_000
		o.Configs = 120
		o.TrialsPerConfig = 10
	}
	return o
}

// TestPaperClaimsAllConfirmed is the acceptance gate on a clean tree:
// every claim in the table must come back CONFIRMED.
func TestPaperClaimsAllConfirmed(t *testing.T) {
	verdicts := Run(context.Background(), PaperClaims(), testOptions(t), nil)
	for _, v := range verdicts {
		t.Logf("%-12s %-34s %s", v.Status, v.Claim, v.Detail)
		if v.Status != Confirmed {
			t.Errorf("claim %s: %v (%s)", v.Claim, v.Status, v.Detail)
		}
	}
	if !AllConfirmed(verdicts) {
		t.Fatal("clean tree does not confirm the claim table")
	}
}

// invertedXEDWeight is the deliberately injected bug of the acceptance
// criteria: XED's erasure weights swapped, so every located visible fault
// spends 2 erasures (defeating the capacity-1 rank budget alone) while the
// genuinely unlocatable silent transient word fault spends only 1. This
// collapses XED to roughly SECDED's failure rate.
func invertedXEDWeight(cfg *faultsim.Config, r *faultsim.FaultRecord) int {
	w := faultsim.VisibleWeight(cfg, r)
	if w == 0 {
		return 0
	}
	return 3 - xedLikeWeight(cfg, r)
}

// xedLikeWeight mirrors the stock XED weighting (1 for located faults, 2
// for silent transient word faults) using only exported surface.
func xedLikeWeight(cfg *faultsim.Config, r *faultsim.FaultRecord) int {
	if r.Silent && r.Transient && r.Gran == dram.GranWord {
		return 2
	}
	return 1
}

// sabotagedFactory resolves scheme names like faultsim.SchemesByName but
// substitutes the inverted-weight XED for the real one.
func sabotagedFactory(names ...string) ([]faultsim.Scheme, error) {
	schemes, err := faultsim.SchemesByName(names...)
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		if n == "XED" {
			schemes[i] = faultsim.NewRankErasureScheme("XED", 1, invertedXEDWeight)
		}
	}
	return schemes, nil
}

// TestInjectedBugIsRefuted demonstrates the other half of the acceptance
// criteria: with the inverted erasure weight injected, at least one claim
// is REFUTED — and the specific Figure 7 ordering claim catches it.
func TestInjectedBugIsRefuted(t *testing.T) {
	o := testOptions(t)
	o.Schemes = sabotagedFactory
	claims, err := SelectClaims(PaperClaims(), []string{
		"fig7/xed-over-secded-10x",
		"fig7/xed-over-chipkill",
	})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := Run(context.Background(), claims, o, nil)
	refuted := 0
	for _, v := range verdicts {
		t.Logf("%-12s %-34s %s", v.Status, v.Claim, v.Detail)
		if v.Status == Refuted {
			refuted++
		}
	}
	if refuted == 0 {
		t.Fatal("inverted XED erasure weight was not refuted by any ordering claim")
	}
	if verdicts[0].Status != Refuted {
		t.Fatalf("fig7/xed-over-secded-10x did not catch the inverted weight: %v", verdicts[0].Status)
	}
}

// TestSabotagedFactoryStillBeatsNothing sanity-checks the sabotage itself:
// the inverted XED really is drastically worse than the real one, so the
// refutation above is evidence about the claim table, not noise.
func TestSabotagedFactoryStillBeatsNothing(t *testing.T) {
	cfg := faultsim.DefaultConfig()
	real, err := faultsim.SchemesByName("XED")
	if err != nil {
		t.Fatal(err)
	}
	sab, err := sabotagedFactory("XED")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := faultsim.Run(cfg, []faultsim.Scheme{real[0], sab[0]}, 100_000, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[1].Failures < 20*rep.Results[0].Failures {
		t.Fatalf("sabotaged XED (%d failures) is not clearly worse than real XED (%d failures)",
			rep.Results[1].Failures, rep.Results[0].Failures)
	}
}

// TestRunCancelledContext: a cancelled context must surface as Errored
// verdicts for every claim, not silently skip them.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	verdicts := Run(ctx, PaperClaims(), testOptions(t), nil)
	if len(verdicts) != len(PaperClaims()) {
		t.Fatalf("%d verdicts for %d claims", len(verdicts), len(PaperClaims()))
	}
	for _, v := range verdicts {
		if v.Status != Errored {
			t.Fatalf("claim %s: status %v under cancelled context", v.Claim, v.Status)
		}
	}
}

// TestRunEmitsEveryVerdict: the emit callback sees each verdict exactly
// once, in table order — cmd/xedverify's streaming output depends on it.
func TestRunEmitsEveryVerdict(t *testing.T) {
	claims := []Claim{
		{Name: "a", Check: func(context.Context, Options) Verdict { return Verdict{Status: Confirmed} }},
		{Name: "b", Check: func(context.Context, Options) Verdict { return Verdict{Status: Refuted} }},
	}
	var seen []string
	verdicts := Run(context.Background(), claims, Options{}, func(v Verdict) {
		seen = append(seen, fmt.Sprintf("%s:%v", v.Claim, v.Status))
	})
	if strings.Join(seen, ",") != "a:CONFIRMED,b:REFUTED" {
		t.Fatalf("emitted %v", seen)
	}
	if AllConfirmed(verdicts) {
		t.Fatal("AllConfirmed true despite refuted claim")
	}
}

// TestSelectClaims covers the -claims resolution rules.
func TestSelectClaims(t *testing.T) {
	table := PaperClaims()
	all, err := SelectClaims(table, nil)
	if err != nil || len(all) != len(table) {
		t.Fatalf("empty selection: %d claims, err %v", len(all), err)
	}
	if _, err := SelectClaims(table, []string{"no/such"}); err == nil {
		t.Fatal("unknown claim name accepted")
	}
	one, err := SelectClaims(table, []string{table[1].Name})
	if err != nil || len(one) != 1 || one[0].Name != table[1].Name {
		t.Fatalf("selecting %q: %d claims, err %v", table[1].Name, len(one), err)
	}
}

// TestOptionsNormalize: zero-valued options must pick up every default so
// partially filled CLI structs compose with claim checks.
func TestOptionsNormalize(t *testing.T) {
	n := Options{}.normalize()
	d := DefaultOptions()
	if n.Batch != d.Batch || n.MaxTrials != d.MaxTrials || n.Alpha != d.Alpha ||
		n.Beta != d.Beta || n.Separation != d.Separation || n.Configs != d.Configs ||
		n.TrialsPerConfig != d.TrialsPerConfig || n.Schemes == nil {
		t.Fatalf("normalize left gaps: %+v", n)
	}
	// Explicit values survive.
	o := Options{Batch: 7, MaxTrials: 9, Configs: 3}.normalize()
	if o.Batch != 7 || o.MaxTrials != 9 || o.Configs != 3 {
		t.Fatalf("normalize clobbered explicit values: %+v", o)
	}
}

// countingRunner fabricates campaign reports without simulating: the
// "better" scheme (result 0) never fails, the "worse" one fails 10% of
// trials, so a ratio SPRT accepts immediately. It exists to pin the
// Options.Runner seam — the hook xedverify -coordinator uses to route
// claims through a campaign service.
func countingRunner(calls *int) CampaignRunner {
	return func(_ context.Context, _ faultsim.Config, schemes []faultsim.Scheme, o faultsim.CampaignOptions) (*faultsim.Report, error) {
		*calls++
		rep := &faultsim.Report{Trials: uint64(o.Trials), Requested: uint64(o.Trials), Years: 7}
		for i, s := range schemes {
			r := faultsim.Result{SchemeName: s.Name(), Trials: uint64(o.Trials), FailuresByYear: make([]uint64, 7)}
			if i > 0 {
				r.Failures = uint64(o.Trials / 10)
				r.DUEs = r.Failures
			}
			rep.Results = append(rep.Results, r)
		}
		return rep, nil
	}
}

// TestOptionsRunnerSeam: a substituted CampaignRunner carries the whole
// statistical claim — no local simulation happens, and the verdict follows
// the fabricated evidence.
func TestOptionsRunnerSeam(t *testing.T) {
	calls := 0
	o := DefaultOptions()
	o.Runner = countingRunner(&calls)
	claims, err := SelectClaims(PaperClaims(), []string{"fig7/xed-over-secded-10x"})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := Run(context.Background(), claims, o, nil)
	if calls == 0 {
		t.Fatal("custom Runner was never invoked")
	}
	if verdicts[0].Status != Confirmed {
		t.Fatalf("fabricated 0-vs-10%% evidence not confirmed: %v (%s)", verdicts[0].Status, verdicts[0].Detail)
	}
}

// TestBatchSeedsDrawDisjointSubstreams: a claim's sequential batches must
// be independent samples, so no two (batch, chunk) pairs among a claim's
// first 100 batches of 100 chunks may start from the same substream.
func TestBatchSeedsDrawDisjointSubstreams(t *testing.T) {
	for _, claim := range []string{"fig9/xedck-over-dck", "fig10/xedck-over-dck-scaling"} {
		seen := make(map[simrand.State][2]int, 100*100)
		for b := 0; b < 100; b++ {
			seed := batchSeed(DefaultOptions().Seed, claim, b)
			for c := 0; c < 100; c++ {
				var src simrand.Source
				src.SeedStream(seed, uint64(c))
				st := src.State()
				if prev, dup := seen[st]; dup {
					t.Fatalf("%s: batch %d chunk %d draws the substream of batch %d chunk %d", claim, b, c, prev[0], prev[1])
				}
				seen[st] = [2]int{b, c}
			}
		}
	}
}
