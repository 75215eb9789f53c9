package faultsim

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
)

// Result accumulates one scheme's outcome over all trials.
type Result struct {
	SchemeName string
	Trials     uint64
	Failures   uint64
	// DUEs and SDCs split Failures by kind (§VIII, Table IV): detected
	// uncorrectable errors versus silent/mis-corrected data corruption.
	DUEs, SDCs uint64
	// FailuresByYear[y] counts systems whose first failure occurred by
	// the end of year y+1 (cumulative).
	FailuresByYear []uint64
}

// Probability returns the probability of system failure over the full
// lifetime — the paper's figure of merit.
func (r *Result) Probability() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Trials)
}

// ProbabilityByYear returns P(failed by end of year y+1).
func (r *Result) ProbabilityByYear(y int) float64 {
	if r.Trials == 0 || y < 0 || y >= len(r.FailuresByYear) {
		return 0
	}
	return float64(r.FailuresByYear[y]) / float64(r.Trials)
}

// DUEProbability returns the detected-uncorrectable share of failures.
func (r *Result) DUEProbability() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.DUEs) / float64(r.Trials)
}

// SDCProbability returns the silent-corruption share of failures.
func (r *Result) SDCProbability() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.SDCs) / float64(r.Trials)
}

// StdErr returns the binomial standard error of Probability.
func (r *Result) StdErr() float64 {
	if r.Trials == 0 {
		return 0
	}
	p := r.Probability()
	return math.Sqrt(p * (1 - p) / float64(r.Trials))
}

// Report is the outcome of one Monte-Carlo campaign.
type Report struct {
	Config Config
	// Trials counts the trials actually tallied; Requested is the campaign
	// size asked for. They differ when the campaign was cancelled partway
	// (see RunCampaign) or when trials were voided by panics.
	Trials    uint64
	Requested uint64
	Years     int
	Results   []Result
	// TrialErrors lists the trials voided by panicking scheme code, each
	// carrying what is needed to replay it in isolation.
	TrialErrors []TrialError
}

// ResultFor returns the named scheme's result, or nil.
func (rep *Report) ResultFor(name string) *Result {
	for i := range rep.Results {
		if rep.Results[i].SchemeName == name {
			return &rep.Results[i]
		}
	}
	return nil
}

// WriteTable prints the per-year failure probabilities: a header of
// years, then one row per scheme ending in its standard error and its DUE
// and SDC probabilities.
func (rep *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-22s", "scheme \\ year")
	for y := 1; y <= rep.Years; y++ {
		fmt.Fprintf(w, " %9d", y)
	}
	fmt.Fprintln(w)
	for i := range rep.Results {
		r := &rep.Results[i]
		fmt.Fprintf(w, "%-22s", r.SchemeName)
		for y := 0; y < rep.Years; y++ {
			fmt.Fprintf(w, " %9.3g", r.ProbabilityByYear(y))
		}
		fmt.Fprintf(w, "   (±%.1g; DUE %.2g, SDC %.2g)\n", r.StdErr(), r.DUEProbability(), r.SDCProbability())
	}
}

// Improvement returns how many times more reliable scheme a is than b
// (ratio of failure probabilities b/a), the form the paper quotes
// ("XED provides 172x higher reliability than ECC-DIMM").
func (rep *Report) Improvement(a, b string) float64 {
	ra, rb := rep.ResultFor(a), rep.ResultFor(b)
	if ra == nil || rb == nil || ra.Failures == 0 {
		return math.Inf(1)
	}
	return rb.Probability() / ra.Probability()
}

// Run executes the Monte-Carlo campaign: `trials` systems, each exposed to
// one fault stream judged by every scheme. workers <= 0 selects GOMAXPROCS.
// The run is deterministic for a given (cfg, trials, seed) — any worker
// count produces bit-identical results. Run is the simple front door; the
// resilient engine behind it (cancellation, checkpoint/resume, panic
// isolation) is reached through RunCampaign.
func Run(cfg Config, schemes []Scheme, trials int, seed uint64, workers int) (*Report, error) {
	return RunCampaign(context.Background(), cfg, schemes, CampaignOptions{
		Trials:  trials,
		Seed:    seed,
		Workers: workers,
	})
}

// AllSchemes returns the six organisations the paper evaluates, in the
// order they appear across Figures 1, 7 and 9.
func AllSchemes() []Scheme {
	return []Scheme{
		NewNonECC(),
		NewSECDED(),
		NewXED(),
		NewChipkill(),
		NewDoubleChipkill(),
		NewXEDChipkill(),
	}
}

// SchemeNames returns the names of the paper's six organisations, in
// AllSchemes order — the vocabulary SchemesByName accepts.
func SchemeNames() []string {
	all := AllSchemes()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	return names
}

// SchemesByName resolves scheme names (as reported by Scheme.Name) to fresh
// scheme instances, preserving order. Unknown names are an error listing
// the valid vocabulary — the CLI's defence against typos silently running a
// zero-scheme campaign — and so is a repeated name, whose second Report row
// Report.ResultFor could never reach.
func SchemesByName(names ...string) ([]Scheme, error) {
	ctors := map[string]func() Scheme{
		"NonECC":            func() Scheme { return NewNonECC() },
		"ECC-DIMM (SECDED)": func() Scheme { return NewSECDED() },
		"XED":               func() Scheme { return NewXED() },
		"Chipkill":          func() Scheme { return NewChipkill() },
		"Double-Chipkill":   func() Scheme { return NewDoubleChipkill() },
		"XED+Chipkill":      func() Scheme { return NewXEDChipkill() },
	}
	out := make([]Scheme, 0, len(names))
	for i, name := range names {
		ctor, ok := ctors[name]
		if !ok {
			return nil, fmt.Errorf("faultsim: unknown scheme %q (valid: %v)", name, SchemeNames())
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("faultsim: scheme %q named twice", name)
		}
		out = append(out, ctor())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultsim: no schemes named")
	}
	return out, nil
}

// ImprovementCI returns the reliability-improvement ratio of scheme a over
// scheme b together with an approximate 95% confidence interval, using the
// delta method on the log-ratio of two binomial proportions (the trials
// share fault streams, so this is conservative: shared randomness only
// tightens the true interval).
func (rep *Report) ImprovementCI(a, b string) (ratio, lo, hi float64) {
	ra, rb := rep.ResultFor(a), rep.ResultFor(b)
	if ra == nil || rb == nil || ra.Failures == 0 || rb.Failures == 0 {
		return math.Inf(1), 0, math.Inf(1)
	}
	ratio = rb.Probability() / ra.Probability()
	// Var(log p̂) ≈ (1-p)/(np) for a binomial proportion, each scheme with
	// its own trial count.
	na, nb := float64(ra.Trials), float64(rb.Trials)
	va := (1 - ra.Probability()) / (na * ra.Probability())
	vb := (1 - rb.Probability()) / (nb * rb.Probability())
	se := math.Sqrt(va + vb)
	lo = ratio * math.Exp(-1.96*se)
	hi = ratio * math.Exp(1.96*se)
	return ratio, lo, hi
}
