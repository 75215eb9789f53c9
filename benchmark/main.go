// Command xedbenchmark is the repository's benchmark. It drives four user
// paths of the simulator (see README.md), checks their outputs, and
// reports end-to-end metrics, or with -trace 1 per-layer metrics:
//
//	bash benchmark/run.sh -workload campaign-tablei -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out run.json
//	bash benchmark/run.sh -compare parent1.json parent2.json -- change1.json change2.json
//
// Each workload runs in a child process of its own (the benchmark
// re-executes itself), so one workload's heap and set-up cost cannot leak
// into the next. A fixed busy loop, the canary, is timed before and after
// each child to show how fast the machine ran meanwhile, and after every
// operation of the CPU-bound workloads, whose timings it scales to a
// reference machine speed.
//
// Every metric prints as "<workload> <metric> <value> <unit>"; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is 0 when every check
// passed, 1 when one failed or a workload could not run, 2 on bad flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xedbenchmark: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed every workload's inputs derive from")
	secs := flag.Int("seconds", 10, "how long each workload's operation loop runs, in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run, which reports per-layer metrics instead of end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the recorded spans to this JSON file")
	out := flag.String("out", "", "also write the results, with canary times, to this JSON file for -compare")
	compare := flag.Bool("compare", false, "compare result files given as arguments: the parent's, then --, then the change's")
	bounds := flag.String("bounds", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	child := flag.Bool("child", false, "run the workload in this process and print its raw result (used by the benchmark itself)")
	flag.Parse()

	if *compare {
		os.Exit(compareMain(os.Stdout, *bounds, flag.Args()))
	}
	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	names := []string{*workload}
	switch {
	case *workload == "all" && !*child:
		names = workloadNames()
	case *workload == "":
		usageErr("-workload is required")
	default:
		if _, ok := lookupWorkload(*workload); !ok {
			usageErr("unknown workload %q", *workload)
		}
	}
	if *secs < 0 {
		usageErr("-seconds must be >= 0, got %d", *secs)
	}
	if *trace != 0 && *trace != 1 {
		usageErr("-trace must be 0 or 1, got %d", *trace)
	}
	if *traceOut != "" && *trace != 1 {
		usageErr("-trace-out needs -trace 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := &runConfig{
		seed:    *seed,
		seconds: time.Duration(*secs) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		scratch: filepath.Join(".bench_build", "tmp"),
		size:    paperSizes,
	}
	if err := os.MkdirAll(rc.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
		os.Exit(1)
	}
	if *child {
		res := runWorkload(ctx, names[0], rc)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(parentMain(ctx, names, rc, *out, *traceOut))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is what a workload run reports.
type result struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Notes qualify metrics, e.g. which percentile op_tail_ms is.
	Notes []string `json:"notes,omitempty"`
	// Error is the failed check or the error that stopped the run.
	Error string `json:"error,omitempty"`
	// CanaryMS holds the canary's time before and after the run.
	CanaryMS []float64 `json:"canary_ms,omitempty"`
	Spans    []span    `json:"spans,omitempty"`
}

// runDoc is the file -out writes and -compare reads.
type runDoc struct {
	Seed    uint64   `json:"seed"`
	Seconds float64  `json:"seconds"`
	Trace   bool     `json:"trace"`
	Results []result `json:"results"`
}

// runWorkload makes one workload run in this process. The traced run
// first makes the layer passes, then the workload's operations.
func runWorkload(ctx context.Context, name string, rc *runConfig) *result {
	w, _ := lookupWorkload(name)
	res := &result{Workload: name, Metrics: metrics{}}
	var rec *spanRecorder
	var layers metrics
	var err error
	if rc.trace {
		rec = newSpanRecorder()
		layers, err = probeLayers(ctx, rc, rec)
	}
	var o *outcome
	if err == nil {
		o, err = w.run(ctx, rc, rec)
	}
	if o != nil {
		res.Attempted, res.Failed = o.attempted, o.failed
		for _, s := range o.samples {
			res.Attempted += s.attempted
			res.Failed += s.failed
		}
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if rc.trace {
		res.Metrics = layers
		res.Metrics.set("trace.overhead_pct", tracingOverhead(o.samples), "%")
		res.Spans = rec.snapshot()
	} else {
		res.Metrics, res.Notes = endToEnd(o)
	}
	res.Correct = res.Failed == 0
	return res
}

// endToEnd derives the end-to-end metrics from a run's set-up calls and
// untraced operations, with each operation's time scaled to the reference
// machine speed by the factor loop measured for it (see sample.scale).
func endToEnd(o *outcome) (metrics, []string) {
	var durMS, wallMS, rates, scales, allocMB []float64
	for _, s := range o.samples {
		if s.traced {
			continue
		}
		ms := float64(s.dur) / float64(time.Millisecond)
		wallMS = append(wallMS, ms)
		durMS = append(durMS, ms*s.scale)
		rates = append(rates, s.work/(s.dur.Seconds()*s.scale))
		scales = append(scales, s.scale)
		allocMB = append(allocMB, float64(s.alloc)/1e6)
	}
	p := tailPercentile(len(durMS))
	m := metrics{}
	m.set("work_per_s", median(rates), "work/s")
	m.set("op_p50_ms", median(durMS), "ms")
	m.set("op_tail_ms", nearestRank(durMS, p), "ms")
	m.set("setup_s", median(seconds(o.setup)), "s")
	m.set("alloc_mb_per_op", median(allocMB), "MB")
	notes := []string{fmt.Sprintf("op_tail_ms is p%d of %d operations; setup_s is the median of %d set-ups", p, len(durMS), len(o.setup))}
	if median(scales) != 1 {
		notes = append(notes, fmt.Sprintf("timings are scaled to the reference speed by a median factor of %.4f; unscaled, op_p50_ms is %.6g", median(scales), median(wallMS)))
	}
	return m, notes
}

// tracingOverhead compares the traced operations' median time with the
// untraced ones', in percent.
func tracingOverhead(samples []sample) float64 {
	var plain, traced []float64
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s.dur.Seconds())
		} else {
			plain = append(plain, s.dur.Seconds())
		}
	}
	return (median(traced)/median(plain) - 1) * 100
}

// canarySink keeps the canary loops from being optimised away.
var canarySink atomic.Uint64

// refCanaryMS defines the reference machine speed: the one at which the
// canary takes 50 ms, about what it takes on an idle two-vCPU Xeon VM.
const refCanaryMS = 50

// canaryMS times a fixed busy loop on every CPU at once: four independent
// xorshift chains per CPU. Their instruction-level parallelism makes them
// slow down, as the workloads do, when another tenant shares the host; a
// single dependent chain barely notices. The loop does no work the
// benchmark measures: its time shows how fast the machine itself ran.
func canaryMS() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < runtime.NumCPU(); t++ {
		wg.Add(1)
		go func(a uint64) {
			defer wg.Done()
			b, c, d := a+1, a+2, a+3
			for i := 0; i < 16_000_000; i++ {
				a, b, c, d = a^a<<13, b^b<<13, c^c<<13, d^d<<13
				a, b, c, d = a^a>>7, b^b>>7, c^c>>7, d^d>>7
				a, b, c, d = a^a<<17, b^b<<17, c^c<<17, d^d<<17
			}
			canarySink.Add(a ^ b ^ c ^ d)
		}(uint64(t)*4 + 1)
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// parentMain runs each workload in a child process between two canaries,
// prints every metric and the result line, and returns the exit status.
func parentMain(ctx context.Context, names []string, rc *runConfig, out, traceOut string) int {
	doc := runDoc{Seed: rc.seed, Seconds: rc.seconds.Seconds(), Trace: rc.trace}
	status := 0
	for _, name := range names {
		before := canaryMS()
		res, err := runChild(ctx, name, rc)
		after := canaryMS()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xedbenchmark: %s: %v\n", name, err)
			return 1
		}
		res.CanaryMS = []float64{before, after}
		for _, k := range sortedKeys(res.Metrics) {
			mt := res.Metrics[k]
			fmt.Printf("%s %s %s %s\n", name, k, strconv.FormatFloat(mt.Value, 'g', -1, 64), mt.Unit)
		}
		for _, n := range res.Notes {
			fmt.Printf("%s note: %s\n", name, n)
		}
		fmt.Printf("%s canary_ms %.1f %.1f (before, after; not a metric)\n", name, before, after)
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "xedbenchmark: %s failed its check: %s\n", name, res.Error)
			status = 1
		}
		doc.Results = append(doc.Results, *res)
	}
	if traceOut != "" {
		spans := map[string][]span{}
		for _, r := range doc.Results {
			spans[r.Workload] = r.Spans
		}
		if err := writeJSON(traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
			return 1
		}
	}
	for i := range doc.Results {
		doc.Results[i].Spans = nil
	}
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(doc.Results))
	if err != nil {
		fmt.Fprintln(os.Stderr, "xedbenchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

// resultLine folds the results into the final line's object. With more
// than one workload, metric names take the workload as a prefix.
func resultLine(results []result) any {
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted uint64  `json:"attempted"`
		Failed    uint64  `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			line.Metrics[k] = v
		}
	}
	return line
}

// runChild runs one workload in a child process and decodes the result it
// prints. The child is killed if it outlives its time by two minutes.
func runChild(ctx context.Context, name string, rc *runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, rc.seconds+2*time.Minute)
	defer cancel()
	trace := "0"
	if rc.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(rc.seed, 10),
		"-seconds", strconv.Itoa(int(rc.seconds/time.Second)),
		"-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if res.Workload != name {
		return nil, errors.New("child reported another workload")
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
