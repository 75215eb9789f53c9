package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json that -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// side summarises one metric over one side's runs.
type side struct {
	Values      []float64
	Q1, Med, Q3 float64
}

func summarise(vs []float64) side {
	s := side{Values: vs, Med: median(vs)}
	s.Q1, s.Q3 = s.Med, s.Med
	if len(vs) >= 2 {
		s.Q1, _, s.Q3 = quartiles(vs)
	}
	return s
}

// row is one (workload, metric) comparison.
type row struct {
	Workload, Metric, Unit string
	Parent, Change         side
	// Worse is how much the change's median is worse than the parent's,
	// as a share of the parent's (negative when it is better).
	Worse float64
	// Wins counts the pairs (parent run i, change run i) the change won.
	Wins, Pairs int
	// Verdict is ok, gain, regression, unresolved, missing, or "-" for a
	// metric without a bound.
	Verdict string
}

// betterThan reports whether a reads strictly better than b.
func betterThan(a, b float64, better string) bool {
	if better == "higher" {
		return a > b
	}
	return a < b
}

// judge applies the comparison protocol to one metric. A metric regresses
// when the change's median is worse than the parent's by more than bound.
// It is unresolved when the parent's own quartile spread exceeds the bound,
// unless every run of one side beats every run of the other. A gain needs
// at least ten pairs, nine in ten of them won, and a median difference
// larger than the parent's quartile spread.
func judge(r *row, better string, bound float64) {
	p, c := r.Parent, r.Change
	r.Worse = (c.Med - p.Med) / math.Abs(p.Med)
	if better == "higher" {
		r.Worse = -r.Worse
	}
	for i := 0; i < len(p.Values) && i < len(c.Values); i++ {
		r.Pairs++
		if betterThan(c.Values[i], p.Values[i], better) {
			r.Wins++
		}
	}
	allBeats := func(a, b []float64) bool {
		for _, x := range a {
			for _, y := range b {
				if !betterThan(x, y, better) {
					return false
				}
			}
		}
		return true
	}
	changeAhead, parentAhead := allBeats(c.Values, p.Values), allBeats(p.Values, c.Values)
	spread := p.Q3 - p.Q1
	switch {
	case spread/math.Abs(p.Med) > bound && !changeAhead && !parentAhead:
		r.Verdict = "unresolved"
	case r.Worse > bound:
		r.Verdict = "regression"
	case r.Pairs >= 10 && 10*r.Wins >= 9*r.Pairs && -r.Worse*math.Abs(p.Med) > spread:
		r.Verdict = "gain"
	default:
		r.Verdict = "ok"
	}
}

// comparison is the outcome of comparing two sets of runs.
type comparison struct {
	Rows []row
	// FailedRise lists workloads whose failed share of attempted
	// operations rose.
	FailedRise []string
	// Canary holds, per workload, the median canary of each side and the
	// pairs whose canaries differ by more than 10 %.
	Canary []canaryRow
}

type canaryRow struct {
	Workload       string
	Parent, Change float64
	Uneven         []int
}

// compareRuns compares parent and change runs metric by metric.
func compareRuns(def *benchDef, parent, change []runDoc) comparison {
	type key struct{ workload, metric string }
	collect := func(docs []runDoc) (map[key][]float64, map[string][2]uint64, map[string][]float64) {
		vals := map[key][]float64{}
		counts := map[string][2]uint64{}
		canary := map[string][]float64{}
		for _, d := range docs {
			for _, r := range d.Results {
				for name, m := range r.Metrics {
					vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], m.Value)
				}
				c := counts[r.Workload]
				counts[r.Workload] = [2]uint64{c[0] + r.Attempted, c[1] + r.Failed}
				if len(r.CanaryMS) > 0 {
					canary[r.Workload] = append(canary[r.Workload], mean(r.CanaryMS))
				}
			}
		}
		return vals, counts, canary
	}
	pv, pc, pCanary := collect(parent)
	cv, cc, cCanary := collect(change)

	bounds := map[string]float64{}
	better := map[string]string{}
	units := map[string]string{}
	for _, m := range def.EndToEnd {
		bounds[m.Name], better[m.Name], units[m.Name] = m.Bound, m.Better, m.Unit
	}
	for _, m := range def.PerLayer {
		better[m.Name], units[m.Name] = m.Better, m.Unit
	}

	var cmp comparison
	keys := map[key]bool{}
	for k := range pv {
		keys[k] = true
	}
	for k := range cv {
		keys[k] = true
	}
	var order []key
	for k := range keys {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].metric < order[j].metric
	})
	for _, k := range order {
		r := row{Workload: k.workload, Metric: k.metric, Unit: units[k.metric]}
		p, c := pv[k], cv[k]
		if len(p) > 0 {
			r.Parent = summarise(p)
		}
		if len(c) > 0 {
			r.Change = summarise(c)
		}
		bound, bounded := bounds[k.metric]
		switch {
		case bounded && (len(p) == 0 || len(c) == 0):
			r.Verdict = "missing"
		case bounded:
			judge(&r, better[k.metric], bound)
		default:
			r.Verdict = "-"
		}
		cmp.Rows = append(cmp.Rows, r)
	}

	var wls []string
	for w := range pc {
		wls = append(wls, w)
	}
	sort.Strings(wls)
	for _, w := range wls {
		p, c := pc[w], cc[w]
		if p[0] > 0 && c[0] > 0 && float64(c[1])/float64(c[0]) > float64(p[1])/float64(p[0]) {
			cmp.FailedRise = append(cmp.FailedRise, w)
		}
		if len(pCanary[w]) == 0 || len(cCanary[w]) == 0 {
			continue
		}
		cr := canaryRow{Workload: w, Parent: median(pCanary[w]), Change: median(cCanary[w])}
		for i := 0; i < len(pCanary[w]) && i < len(cCanary[w]); i++ {
			if math.Abs(cCanary[w][i]/pCanary[w][i]-1) > 0.10 {
				cr.Uneven = append(cr.Uneven, i)
			}
		}
		cmp.Canary = append(cmp.Canary, cr)
	}
	return cmp
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// failing reports whether the comparison must fail: a regression, a
// missing metric, or a rise in failed operations.
func (c comparison) failing() bool {
	if len(c.FailedRise) > 0 {
		return true
	}
	for _, r := range c.Rows {
		if r.Verdict == "regression" || r.Verdict == "missing" {
			return true
		}
	}
	return false
}

func (c comparison) print(w io.Writer) {
	g := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	fmt.Fprintf(w, "%-16s %-44s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins", "verdict")
	for _, r := range c.Rows {
		ps := fmt.Sprintf("%s [%s, %s] %s", g(r.Parent.Med), g(r.Parent.Q1), g(r.Parent.Q3), r.Unit)
		cs := fmt.Sprintf("%s [%s, %s] %s", g(r.Change.Med), g(r.Change.Q1), g(r.Change.Q3), r.Unit)
		worse, wins := "", ""
		if r.Verdict != "-" && r.Verdict != "missing" {
			worse = fmt.Sprintf("%+.1f%%", 100*r.Worse)
			wins = fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
		}
		fmt.Fprintf(w, "%-16s %-44s %-34s %-34s %8s %6s  %s\n", r.Workload, r.Metric, ps, cs, worse, wins, r.Verdict)
	}
	for _, cr := range c.Canary {
		fmt.Fprintf(w, "canary %s: parent %.1f ms, change %.1f ms, ratio %.3f", cr.Workload, cr.Parent, cr.Change, cr.Change/cr.Parent)
		if len(cr.Uneven) > 0 {
			fmt.Fprintf(w, "; pairs %v differ by more than 10%%", cr.Uneven)
		}
		fmt.Fprintln(w)
	}
	for _, wl := range c.FailedRise {
		fmt.Fprintf(w, "failed operations rose on %s\n", wl)
	}
}

// compareMain implements -compare and returns the exit status.
func compareMain(w io.Writer, boundsPath string, args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "xedbenchmark: -compare wants parent files, then --, then change files")
		return 2
	}
	var def benchDef
	if err := readJSON(boundsPath, &def); err != nil {
		fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
		return 2
	}
	load := func(paths []string) ([]runDoc, error) {
		docs := make([]runDoc, len(paths))
		for i, p := range paths {
			if err := readJSON(p, &docs[i]); err != nil {
				return nil, err
			}
		}
		return docs, nil
	}
	parent, err := load(args[:sep])
	if err == nil {
		var change []runDoc
		if change, err = load(args[sep+1:]); err == nil {
			cmp := compareRuns(&def, parent, change)
			cmp.print(w)
			if cmp.failing() {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
	return 2
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
