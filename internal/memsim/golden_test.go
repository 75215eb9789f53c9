package memsim

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current simulator")

const goldenFile = "testdata/results.golden"

// goldenInstr is the instruction count per core of every golden config:
// long enough for the memory-bound workloads to refresh every rank and
// drain their write queues many times, short enough for the whole matrix
// to run in under two seconds on two cores.
const goldenInstr = 15_000

// goldenCase is one config of the pinned matrix.
type goldenCase struct {
	key string
	cfg Config
}

// goldenSchemes are the schemes Figures 11-14 and the serial-mode
// ablation simulate.
func goldenSchemes() []SchemeConfig {
	return []SchemeConfig{
		SECDEDScheme(), XEDScheme(), ChipkillScheme(), XEDChipkillScheme(),
		DoubleChipkillScheme(), ExtraBurstChipkill(), ExtraBurstDoubleChipkill(),
		ExtraTransactionChipkill(), ExtraTransactionDoubleChipkill(),
		LOTECCScheme(), MultiECCScheme(), XEDSchemeWithSerialMode(100),
	}
}

// smallWriteQueue shrinks the write queue and its watermarks: with the
// default 64 entries no core ever waits for a write slot; eight entries
// make cores block on a full write queue.
func smallWriteQueue(c *Config) { c.WriteQueueCap, c.DrainHi, c.DrainLo = 8, 6, 3 }

// goldenCases lists the matrix: every paper workload at two seeds under
// every golden scheme, then the small write queue ("smallwq") on four
// workloads of different character (light, streaming, write-heavy,
// row-conflicting). short keeps a subset for -race runs: one seed, every
// third workload, and the small write queue on the write-heavy workload.
func goldenCases(short bool) []goldenCase {
	seeds := []uint64{1, 2}
	workloads := PaperWorkloads()
	smallWQWorkloads := []string{"dealII", "libquantum", "lbm", "mcf"}
	if short {
		seeds = seeds[:1]
		var some []Workload
		for i := 0; i < len(workloads); i += 3 {
			some = append(some, workloads[i])
		}
		workloads = some
		smallWQWorkloads = []string{"lbm"}
	}
	var cases []goldenCase
	add := func(variant string, w Workload, s SchemeConfig, seed uint64, set func(*Config)) {
		cfg := DefaultConfig(w, s)
		cfg.InstrPerCore = goldenInstr
		cfg.Seed = seed
		if set != nil {
			set(&cfg)
		}
		cases = append(cases, goldenCase{
			key: fmt.Sprintf("%s/%s/%s/seed=%d", variant, w.Name, s.Name, seed),
			cfg: cfg,
		})
	}
	for _, seed := range seeds {
		for _, w := range workloads {
			for _, s := range goldenSchemes() {
				add("base", w, s, seed, nil)
			}
		}
	}
	for _, name := range smallWQWorkloads {
		w, _ := WorkloadByName(name)
		for _, s := range goldenSchemes() {
			add("smallwq", w, s, 1, smallWriteQueue)
		}
	}
	return cases
}

// goldenLine renders a config's key, a tab and every Result field; %v
// prints floats with the fewest digits that round-trip, so the line is
// exact.
func goldenLine(key string, res Result) string {
	return fmt.Sprintf("%s\t%+v", key, res)
}

// runCases runs fn on every case over GOMAXPROCS goroutines and returns
// the outputs in case order.
func runCases[T any](cases []goldenCase, fn func(Config) T) []T {
	out := make([]T, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(cases[i].cfg)
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TestGoldenResults pins every Result of the golden matrix, byte for
// byte, to testdata/results.golden. Regenerate with
//
//	go test ./internal/memsim -run TestGoldenResults -update
//
// and review the diff: a change to the simulator's speed must leave the
// file as it is.
func TestGoldenResults(t *testing.T) {
	cases := goldenCases(testing.Short() && !*update)
	results := runCases(cases, func(cfg Config) Result { return New(cfg).Run() })
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = goldenLine(c.key, results[i])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d results to %s", len(got), goldenFile)
		return
	}
	want := readGolden(t)
	mismatches := 0
	for _, line := range got {
		key, _, _ := strings.Cut(line, "\t")
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: missing from %s (rerun with -update)", key, goldenFile)
		case w != line:
			t.Errorf("result changed:\n got %s\nwant %s", line, w)
		default:
			continue
		}
		if mismatches++; mismatches == 10 {
			t.Fatal("more than ten mismatches; stopping")
		}
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("%s holds %d results, the matrix has %d", goldenFile, len(want), len(got))
	}
}

// readGolden loads the golden file keyed by config.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, _, _ := strings.Cut(sc.Text(), "\t")
		want[key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
