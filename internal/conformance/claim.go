package conformance

import (
	"context"
	"fmt"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/fleet"
)

// Status classifies a claim's verdict.
type Status int

const (
	// Confirmed: the evidence supports the claim at the configured
	// confidence (or the claim was checked exhaustively).
	Confirmed Status = iota
	// Refuted: the evidence contradicts the claim — the simulator no
	// longer reproduces the paper's result.
	Refuted
	// Inconclusive: the trial budget ran out before either boundary was
	// crossed. Treated as a failure by cmd/xedverify: a conformance gate
	// that cannot decide must not pass silently.
	Inconclusive
	// Errored: the check itself could not run (configuration rejected,
	// campaign error).
	Errored
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Confirmed:
		return "CONFIRMED"
	case Refuted:
		return "REFUTED"
	case Inconclusive:
		return "INCONCLUSIVE"
	case Errored:
		return "ERROR"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Verdict is the outcome of checking one claim.
type Verdict struct {
	// Claim, Ref and Doc identify the claim (copied from the Claim).
	Claim, Ref, Doc string
	// Status is the decision.
	Status Status
	// Detail is the human-readable evidence: observed probabilities,
	// LLR, pattern counts, or the first divergence found.
	Detail string
	// Trials counts the Monte-Carlo trials or exhaustive patterns
	// examined.
	Trials uint64
	// Confidence is the probability the verdict is right given the
	// claim's statistical design: 1 for exhaustive checks, 1-alpha (or
	// 1-beta for refutations) for sequential ones.
	Confidence float64
	// Elapsed is the wall-clock cost of the check.
	Elapsed time.Duration
	// Err carries the failure when Status is Errored.
	Err error
}

// SchemeFactory resolves scheme names to instances. The default is
// faultsim.SchemesByName; tests substitute factories that return sabotaged
// schemes to demonstrate that the claim table actually refutes them.
type SchemeFactory func(names ...string) ([]faultsim.Scheme, error)

// CampaignRunner evaluates one Monte-Carlo campaign on behalf of a claim
// check. The default is faultsim.RunCampaign (local cores); xedverify
// -coordinator substitutes a dist-client runner, so the same conformance
// gate that certifies a local build certifies a deployed campaign service
// — the claims cannot tell the difference because the service's results
// are bit-identical.
type CampaignRunner func(ctx context.Context, cfg faultsim.Config, schemes []faultsim.Scheme, opts faultsim.CampaignOptions) (*faultsim.Report, error)

// Options parameterises a conformance run. The zero value is unusable;
// start from DefaultOptions.
type Options struct {
	// Seed roots all campaign and differential randomness; runs are
	// deterministic for a fixed (Options, claim table).
	Seed uint64
	// Workers is the campaign worker count; <= 0 selects GOMAXPROCS.
	Workers int
	// Batch is the Monte-Carlo trials per sequential-test step.
	Batch int
	// MaxTrials bounds one statistical claim's total trials; exhausting
	// it yields Inconclusive.
	MaxTrials int
	// Alpha bounds the probability of confirming a false claim; Beta of
	// refuting a true one.
	Alpha, Beta float64
	// Separation places each SPRT's design alternative at
	// ratio*Separation; see NewRatioSPRT.
	Separation float64
	// Configs and TrialsPerConfig size the evaluator differential claim.
	Configs         int
	TrialsPerConfig int
	// Schemes resolves scheme names; nil selects faultsim.SchemesByName.
	Schemes SchemeFactory
	// Runner evaluates campaigns; nil selects faultsim.RunCampaign.
	Runner CampaignRunner
	// Fleet ages field-simulator fleets; nil selects fleet.Run. The fleet/
	// claim uses it, and sabotage tests substitute broken runners to prove
	// the claim refutes them.
	Fleet FleetRunner
}

// DefaultOptions returns the tuning the CI gate runs with: every claim in
// PaperClaims decides in a few seconds total at these settings.
func DefaultOptions() Options {
	return Options{
		Seed:            42,
		Batch:           250_000,
		MaxTrials:       24_000_000,
		Alpha:           1e-9,
		Beta:            1e-9,
		Separation:      2,
		Configs:         1000,
		TrialsPerConfig: 30,
	}
}

// normalize fills unset fields with defaults so hand-built Options (tests,
// CLI flag structs) compose with the claim checks.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.Batch <= 0 {
		o.Batch = def.Batch
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = def.MaxTrials
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = def.Alpha
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = def.Beta
	}
	if o.Separation <= 1 {
		o.Separation = def.Separation
	}
	if o.Configs <= 0 {
		o.Configs = def.Configs
	}
	if o.TrialsPerConfig <= 0 {
		o.TrialsPerConfig = def.TrialsPerConfig
	}
	if o.Schemes == nil {
		o.Schemes = faultsim.SchemesByName
	}
	if o.Runner == nil {
		o.Runner = faultsim.RunCampaign
	}
	if o.Fleet == nil {
		o.Fleet = fleet.Run
	}
	return o
}

// Claim is one machine-checkable assertion about the reproduction.
type Claim struct {
	// Name is the stable slug claims are selected by, e.g.
	// "fig7/xed-over-secded-10x".
	Name string
	// Ref anchors the claim in the paper, e.g. "§VII Fig. 7".
	Ref string
	// Doc states the claim in one line.
	Doc string
	// Check decides the claim under the given options.
	Check func(ctx context.Context, o Options) Verdict
}

// Run checks the given claims in order, emitting each verdict as it lands
// (emit may be nil) and returning all of them. Options are normalized
// once so every claim sees the same effective configuration. A cancelled
// ctx marks the remaining claims Errored rather than skipping them
// silently.
func Run(ctx context.Context, claims []Claim, o Options, emit func(Verdict)) []Verdict {
	o = o.normalize()
	verdicts := make([]Verdict, 0, len(claims))
	for _, c := range claims {
		var v Verdict
		if err := ctx.Err(); err != nil {
			v = Verdict{Claim: c.Name, Ref: c.Ref, Doc: c.Doc, Status: Errored, Err: err, Detail: "cancelled before check"}
		} else {
			start := time.Now()
			v = c.Check(ctx, o)
			v.Elapsed = time.Since(start)
			v.Claim, v.Ref, v.Doc = c.Name, c.Ref, c.Doc
		}
		if emit != nil {
			emit(v)
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// AllConfirmed reports whether every verdict is Confirmed.
func AllConfirmed(vs []Verdict) bool {
	for _, v := range vs {
		if v.Status != Confirmed {
			return false
		}
	}
	return true
}

// batchSeed derives the campaign seed for one sequential batch. Batches
// must draw disjoint substreams so their failure counts are independent
// samples. The sum h + batch·γ alone would not do: simrand keys chunk c's
// substream as seed + (c+1)·γ with the same splitmix64 increment γ, so
// batch b's chunk c would be batch b+1's chunk c-1. The splitmix64
// finalizer scatters consecutive batches across the seed space instead.
func batchSeed(seed uint64, claim string, batch int) uint64 {
	h := seed
	for _, b := range []byte(claim) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	z := h + uint64(batch)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ratioClaim builds the standard statistical claim: scheme `better` fails
// at least `ratio` times less often than scheme `worse` under cfg. The
// check drives faultsim.RunCampaign batch by batch, feeding failure
// counts to a RatioSPRT until it decides or the trial budget runs out; a
// budget exhaustion falls back to the Wilson-interval separation test
// before declaring Inconclusive.
func ratioClaim(name, ref, doc string, cfg func() faultsim.Config, better, worse string, ratio float64) Claim {
	return Claim{
		Name: name,
		Ref:  ref,
		Doc:  doc,
		Check: func(ctx context.Context, o Options) Verdict {
			schemes, err := o.Schemes(better, worse)
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}
			sprt := NewRatioSPRT(ratio, o.Separation, o.Alpha, o.Beta)
			var trials, kA, kB uint64
			c := cfg()
			for batch := 0; int(trials) < o.MaxTrials && sprt.Decision() == Undecided; batch++ {
				rep, err := o.Runner(ctx, c, schemes, faultsim.CampaignOptions{
					Trials:  o.Batch,
					Seed:    batchSeed(o.Seed, name, batch),
					Workers: o.Workers,
				})
				if err != nil {
					return Verdict{Status: Errored, Err: err, Trials: trials, Detail: err.Error()}
				}
				dA := rep.Results[0].Failures
				dB := rep.Results[1].Failures
				kA += dA
				kB += dB
				trials += rep.Trials
				sprt.Observe(dA, dB)
			}
			detail := fmt.Sprintf("P(%s)=%.3g (%d fails) vs P(%s)=%.3g (%d fails), claimed ratio >= %g, LLR %.1f",
				better, float64(kA)/float64(trials), kA,
				worse, float64(kB)/float64(trials), kB, ratio, sprt.LLR())
			switch sprt.Decision() {
			case AcceptClaim:
				return Verdict{Status: Confirmed, Detail: detail, Trials: trials, Confidence: 1 - o.Alpha}
			case RejectClaim:
				return Verdict{Status: Refuted, Detail: detail, Trials: trials, Confidence: 1 - o.Beta}
			}
			// Budget exhausted: let the (correlation-free, per-campaign)
			// Wilson cross-check have the last word before giving up.
			confirmed, refuted := wilsonSeparation(kA, trials, kB, trials, ratio)
			switch {
			case confirmed:
				return Verdict{Status: Confirmed, Detail: detail + " (Wilson separation)", Trials: trials, Confidence: 0.95}
			case refuted:
				return Verdict{Status: Refuted, Detail: detail + " (Wilson separation)", Trials: trials, Confidence: 0.95}
			}
			return Verdict{Status: Inconclusive, Detail: detail, Trials: trials}
		},
	}
}

// bandClaim asserts two schemes' failure probabilities are within a factor
// `band` of each other — the Figure 1 "SECDED adds essentially nothing
// over Non-ECC" result. It runs a fixed trial budget and decides by
// Wilson-interval inclusion: confirmed when even the extreme corners of
// both intervals stay inside the band, refuted when the intervals prove a
// ratio outside it.
func bandClaim(name, ref, doc string, cfg func() faultsim.Config, a, b string, band float64) Claim {
	return Claim{
		Name: name,
		Ref:  ref,
		Doc:  doc,
		Check: func(ctx context.Context, o Options) Verdict {
			schemes, err := o.Schemes(a, b)
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}
			// One quarter of the statistical budget: equivalence needs a
			// fixed sample, and the band is wide relative to the
			// probabilities involved (both schemes fail ~10% of trials).
			trials := o.MaxTrials / 4
			if trials < o.Batch {
				trials = o.Batch
			}
			rep, err := o.Runner(ctx, cfg(), schemes, faultsim.CampaignOptions{
				Trials:  trials,
				Seed:    batchSeed(o.Seed, name, 0),
				Workers: o.Workers,
			})
			if err != nil {
				return Verdict{Status: Errored, Err: err, Detail: err.Error()}
			}
			kA, kB := rep.Results[0].Failures, rep.Results[1].Failures
			n := rep.Trials
			loA, hiA := faultsim.WilsonInterval(kA, n)
			loB, hiB := faultsim.WilsonInterval(kB, n)
			detail := fmt.Sprintf("P(%s)=%.3g, P(%s)=%.3g, band %gx", a, float64(kA)/float64(n), b, float64(kB)/float64(n), band)
			switch {
			case hiA <= band*loB && hiB <= band*loA:
				return Verdict{Status: Confirmed, Detail: detail, Trials: n, Confidence: 0.95}
			case loA > band*hiB || loB > band*hiA:
				return Verdict{Status: Refuted, Detail: detail, Trials: n, Confidence: 0.95}
			}
			return Verdict{Status: Inconclusive, Detail: detail, Trials: n}
		},
	}
}
