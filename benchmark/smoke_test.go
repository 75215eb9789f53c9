package main

import (
	"context"
	"runtime"
	"sort"
	"testing"
)

// smokeSizes shrink every operation and layer pass so that all four
// workloads, and one traced run, finish in a few seconds.
var smokeSizes = func() sizes {
	s := sizes{
		campaignTrials: 1 << 20,
		fleetDIMMs:     50_000,
		memsimInstr:    1000,
		claims:         []string{"table1/fit-inputs", "fig7/xed-over-secded-10x"},
		gate:           paperSizes.gate,
		probe: probeSizes{
			chunks: 8, genTrials: 1 << 14, draws: 1 << 12,
			fleetDIMMs: 1 << 14, harpDIMMs: 500, instr: 1000, jobs: 1,
		},
	}
	s.gate.Configs = 20
	return s
}()

func smokeConfig(t *testing.T, trace bool) *runConfig {
	return &runConfig{seed: 7, trace: trace, workers: runtime.NumCPU(), scratch: t.TempDir(), size: smokeSizes}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	var def benchDef
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics reports the names where got and want (name → unit) differ.
func sameMetrics(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	var diff []string
	for name, m := range got {
		if want[name] != m.Unit {
			diff = append(diff, "+"+name+" "+m.Unit)
		}
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q", what, name)
		}
	}
	for name, unit := range want {
		if _, ok := got[name]; !ok {
			diff = append(diff, "-"+name+" "+unit)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("%s: metrics differ from BENCHMARK.json: %v", what, diff)
	}
}

func TestSmokeWorkloads(t *testing.T) {
	endToEnd, _ := benchmarkMetrics(t)
	for _, w := range workloads {
		res := runWorkload(context.Background(), w.name, smokeConfig(t, false))
		if !res.Correct || res.Error != "" || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d error=%q", w.name, res.Correct, res.Attempted, res.Failed, res.Error)
			continue
		}
		sameMetrics(t, w.name, res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, m.Value)
			}
		}
	}
}

func TestSmokeTracedRun(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	for _, name := range []string{"campaign-tablei", "verify-service"} {
		res := runWorkload(context.Background(), name, smokeConfig(t, true))
		if !res.Correct || res.Error != "" {
			t.Errorf("%s: correct=%v error=%q", name, res.Correct, res.Error)
			continue
		}
		sameMetrics(t, "traced "+name, res.Metrics, perLayer)
		if len(res.Spans) == 0 {
			t.Errorf("%s: the traced run recorded no spans", name)
		}
	}
}
