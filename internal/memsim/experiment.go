package memsim

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// Comparison holds the normalised execution-time and memory-power matrix
// of Figures 11 and 12: every workload under every scheme, normalised to
// the first scheme (the ECC-DIMM SECDED baseline, per §XI).
type Comparison struct {
	Workloads []Workload
	Schemes   []SchemeConfig
	// Raw results indexed [workload][scheme].
	Results [][]Result
}

// RunComparison simulates every workload under every scheme. instrPerCore
// scales fidelity versus runtime; workers <= 0 uses GOMAXPROCS.
//
// Schemes whose configs differ only in Name describe the same memory
// system (XED runs on SECDED's hardware, XED+Chipkill on Chipkill's), so
// each workload simulates the first scheme of such a group once and every
// other member's cell is a copy of that Result under its own Scheme name.
//
// ctx cancellation abandons unstarted simulations and interrupts in-flight
// ones at the next cycle-batch boundary; the Comparison is returned
// alongside ctx's error. Then a cell whose simulation never started holds
// the zero Result, one interrupted mid-run holds the partial Result
// RunContext returned, and one that finished holds its full Result; a
// twin's cell holds a copy of its source's.
func RunComparison(ctx context.Context, workloads []Workload, schemes []SchemeConfig, instrPerCore int64, seed uint64, workers int) (*Comparison, error) {
	cmp := &Comparison{Workloads: workloads, Schemes: schemes}
	cmp.Results = make([][]Result, len(workloads))
	for i := range cmp.Results {
		cmp.Results[i] = make([]Result, len(schemes))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	groups := sameSystemGroups(schemes)
	type job struct {
		w     int
		group []int
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without simulating
				}
				cfg := DefaultConfig(workloads[j.w], schemes[j.group[0]])
				cfg.InstrPerCore = instrPerCore
				cfg.Seed = seed + uint64(j.w)*977
				res := New(cfg).RunContext(ctx)
				for _, s := range j.group {
					res.Scheme = schemes[s].Name
					cmp.Results[j.w][s] = res
				}
			}
		}()
	}
	for w := range workloads {
		for _, g := range groups {
			jobs <- job{w, g}
		}
	}
	close(jobs)
	wg.Wait()
	return cmp, ctx.Err()
}

// sameSystemGroups partitions the indices of schemes into groups whose
// configs are equal once Name is cleared, each group in index order and
// the groups ordered by their first member.
func sameSystemGroups(schemes []SchemeConfig) [][]int {
	var groups [][]int
	group := map[SchemeConfig]int{}
	for s, sc := range schemes {
		sc.Name = ""
		g, ok := group[sc]
		if !ok {
			g = len(groups)
			group[sc] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], s)
	}
	return groups
}

// NormalizedTime returns execution time of (workload w, scheme s) relative
// to scheme 0.
func (c *Comparison) NormalizedTime(w, s int) float64 {
	return float64(c.Results[w][s].Cycles) / float64(c.Results[w][0].Cycles)
}

// NormalizedPower returns memory power relative to scheme 0.
func (c *Comparison) NormalizedPower(w, s int) float64 {
	return c.Results[w][s].Power.Total() / c.Results[w][0].Power.Total()
}

// GmeanTime is the geometric-mean normalised execution time of scheme s —
// the "Gmean" bar of Figure 11.
func (c *Comparison) GmeanTime(s int) float64 {
	return c.gmean(s, c.NormalizedTime, nil)
}

// GmeanPower is Figure 12's Gmean bar.
func (c *Comparison) GmeanPower(s int) float64 {
	return c.gmean(s, c.NormalizedPower, nil)
}

// SuiteGmeanTime restricts the geometric mean to one suite (Figure 14's
// per-suite bars).
func (c *Comparison) SuiteGmeanTime(s int, suite string) float64 {
	filter := func(w Workload) bool { return w.Suite == suite }
	return c.gmean(s, c.NormalizedTime, filter)
}

func (c *Comparison) gmean(s int, metric func(w, s int) float64, filter func(Workload) bool) float64 {
	sum, n := 0.0, 0
	for w := range c.Workloads {
		if filter != nil && !filter(c.Workloads[w]) {
			continue
		}
		sum += math.Log(metric(w, s))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
