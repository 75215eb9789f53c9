package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func testDef(t *testing.T) *benchDef {
	t.Helper()
	var def benchDef
	err := json.Unmarshal([]byte(`{
		"end_to_end": [
			{"name": "work_per_s", "unit": "work/s", "better": "higher", "bound": 0.1},
			{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
		],
		"per_layer": [{"name": "dist.polls_per_job", "unit": "count", "better": "lower"}]
	}`), &def)
	if err != nil {
		t.Fatal(err)
	}
	return &def
}

// docs builds one single-workload run per value pair (work_per_s,
// op_p50_ms).
func docs(work, latency []float64, failed uint64, canary float64) []runDoc {
	var out []runDoc
	for i := range work {
		out = append(out, runDoc{Results: []result{{
			Workload: "w", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics:  metrics{"work_per_s": {work[i], "work/s"}, "op_p50_ms": {latency[i], "ms"}},
			CanaryMS: []float64{canary, canary},
		}}})
	}
	return out
}

func rowFor(t *testing.T, c comparison, metric string) row {
	t.Helper()
	for _, r := range c.Rows {
		if r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no row for %s", metric)
	return row{}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v * (1 + 0.001*float64(i%3))
	}
	return out
}

func TestCompareSameRuns(t *testing.T) {
	p := docs(repeat(100, 5), repeat(10, 5), 0, 200)
	c := compareRuns(testDef(t), p, docs(repeat(100, 5), repeat(10, 5), 0, 200))
	for _, r := range c.Rows {
		if r.Verdict != "ok" {
			t.Errorf("%s: verdict %s on identical runs", r.Metric, r.Verdict)
		}
	}
	if c.failing() {
		t.Error("identical runs fail the comparison")
	}
}

func TestCompareRegression(t *testing.T) {
	p := docs(repeat(100, 5), repeat(10, 5), 0, 200)
	c := compareRuns(testDef(t), p, docs(repeat(80, 5), repeat(12, 5), 0, 200))
	if v := rowFor(t, c, "work_per_s").Verdict; v != "regression" {
		t.Errorf("throughput 20%% down: verdict %s", v)
	}
	if v := rowFor(t, c, "op_p50_ms").Verdict; v != "regression" {
		t.Errorf("latency 20%% up: verdict %s", v)
	}
	if !c.failing() {
		t.Error("a regression does not fail the comparison")
	}
}

func TestCompareUnresolved(t *testing.T) {
	wide := []float64{60, 100, 140, 80, 120}
	p := docs(wide, repeat(10, 5), 0, 200)
	c := compareRuns(testDef(t), p, docs([]float64{70, 95, 130, 85, 110}, repeat(10, 5), 0, 200))
	if v := rowFor(t, c, "work_per_s").Verdict; v != "unresolved" {
		t.Errorf("spread beyond the bound: verdict %s", v)
	}
	if c.failing() {
		t.Error("an unresolved metric fails the comparison")
	}
	// A change whose every run beats every parent run is resolved even
	// when the parent's spread exceeds the bound.
	c = compareRuns(testDef(t), p, docs([]float64{150, 160, 155, 170, 165}, repeat(10, 5), 0, 200))
	if v := rowFor(t, c, "work_per_s").Verdict; v == "unresolved" || v == "regression" {
		t.Errorf("change ahead of every parent run: verdict %s", v)
	}
}

func TestCompareGain(t *testing.T) {
	p := docs(repeat(100, 10), repeat(10, 10), 0, 200)
	c := compareRuns(testDef(t), p, docs(repeat(120, 10), repeat(8, 10), 0, 200))
	for _, m := range []string{"work_per_s", "op_p50_ms"} {
		if r := rowFor(t, c, m); r.Verdict != "gain" || r.Wins != 10 || r.Pairs != 10 {
			t.Errorf("%s: verdict %s, %d/%d wins", m, r.Verdict, r.Wins, r.Pairs)
		}
	}
	// Five pairs are too few to claim a gain.
	c = compareRuns(testDef(t), docs(repeat(100, 5), repeat(10, 5), 0, 200), docs(repeat(120, 5), repeat(8, 5), 0, 200))
	if v := rowFor(t, c, "work_per_s").Verdict; v != "ok" {
		t.Errorf("five pairs: verdict %s", v)
	}
}

func TestCompareFailedRiseAndMissing(t *testing.T) {
	p := docs(repeat(100, 3), repeat(10, 3), 0, 200)
	c := compareRuns(testDef(t), p, docs(repeat(100, 3), repeat(10, 3), 1, 200))
	if len(c.FailedRise) != 1 || !c.failing() {
		t.Errorf("failed operations rose unnoticed: %+v", c.FailedRise)
	}
	change := docs(repeat(100, 3), repeat(10, 3), 0, 200)
	for _, d := range change {
		delete(d.Results[0].Metrics, "op_p50_ms")
	}
	c = compareRuns(testDef(t), p, change)
	if v := rowFor(t, c, "op_p50_ms").Verdict; v != "missing" || !c.failing() {
		t.Errorf("metric dropped by the change: verdict %s", v)
	}
}

func TestCompareCanary(t *testing.T) {
	p := docs(repeat(100, 3), repeat(10, 3), 0, 200)
	change := docs(repeat(100, 3), repeat(10, 3), 0, 200)
	change[1].Results[0].CanaryMS = []float64{250, 250}
	c := compareRuns(testDef(t), p, change)
	if len(c.Canary) != 1 || len(c.Canary[0].Uneven) != 1 || c.Canary[0].Uneven[0] != 1 {
		t.Fatalf("canary rows %+v", c.Canary)
	}
	var out strings.Builder
	c.print(&out)
	if !strings.Contains(out.String(), "pairs [1] differ by more than 10%") {
		t.Errorf("uneven canary not flagged:\n%s", out.String())
	}
}
