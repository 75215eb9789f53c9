package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"xedsim/internal/checkpoint"
	"xedsim/internal/chunkrun"
	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
)

// testConfig returns a fleet small enough for sub-second tests but large
// enough to exercise chunking, MC grouping and a handful of failures.
func testConfig(dimms int) Config {
	cfg := DefaultConfig()
	cfg.DIMMs = dimms
	return cfg
}

// testWorker builds a worker for cfg the way Run builds one.
func testWorker(t testing.TB, cfg *Config, seed uint64) *fleetWorker {
	t.Helper()
	src, err := cfg.trialSource()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newFleetWorker(cfg, src, seed, cfg.Years())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustRun(t *testing.T, cfg Config, opts Options) *Summary {
	t.Helper()
	sum, err := Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sum.Complete {
		t.Fatalf("Run returned incomplete summary without error")
	}
	return sum
}

// TestWorkerCountInvariance is the battery's first pillar: the fleet
// summary — every tally, every per-MC counter — is bit-identical at 1, 4
// and 16 workers, because chunk c always draws substream (seed, c) and all
// accumulators are sums of per-chunk integers.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := testConfig(30_000)
	ref := mustRun(t, cfg, Options{Seed: 11, Workers: 1})
	if ref.Tally.Failed == 0 || ref.Tally.CEs == 0 {
		t.Fatalf("reference run saw no failures (%d) or no CEs (%d); test has no power",
			ref.Tally.Failed, ref.Tally.CEs)
	}
	for _, workers := range []int{4, 16} {
		got := mustRun(t, cfg, Options{Seed: 11, Workers: workers})
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("summary at %d workers differs from 1-worker reference:\n 1: %+v\n%2d: %+v",
				workers, ref.Tally, workers, got.Tally)
		}
	}
}

// TestSeedMatters guards against the inverse failure mode: if different
// seeds collapsed to the same stream, the invariance test above would pass
// vacuously.
func TestSeedMatters(t *testing.T) {
	cfg := testConfig(20_000)
	a := mustRun(t, cfg, Options{Seed: 1})
	b := mustRun(t, cfg, Options{Seed: 2})
	if reflect.DeepEqual(a.Tally, b.Tally) {
		t.Errorf("seeds 1 and 2 produced identical tallies: %+v", a.Tally)
	}
}

// TestCheckpointResumeBitIdentity is the battery's second pillar: a run
// interrupted mid-horizon and run again with the same CheckpointPath — at
// a different worker count — resumes and produces the same Summary and
// checkpoint bytes as an uninterrupted run.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	cfg := testConfig(30_000)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.ckpt")
	ref := mustRun(t, cfg, Options{Seed: 5, Workers: 4, CheckpointPath: refPath})
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "fleet.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := Run(ctx, cfg, Options{
		Seed: 5, Workers: 2,
		CheckpointPath: path,
		OnChunk: func(done, total int) {
			if done >= total/3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatalf("interrupted run returned nil error (summary complete=%v)", partial.Complete)
	}
	if partial.Complete || partial.Tally.DIMMs >= uint64(cfg.DIMMs) {
		t.Fatalf("interruption was not partial: %d/%d DIMMs", partial.Tally.DIMMs, cfg.DIMMs)
	}

	partialBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if err := os.WriteFile(path, partialBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), cfg, Options{Seed: 5, Workers: workers, CheckpointPath: path})
		if err != nil {
			t.Fatalf("resume at %d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("resumed summary at %d workers differs from uninterrupted reference:\nref: %+v\ngot: %+v",
				workers, ref.Tally, got.Tally)
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want) {
			t.Errorf("resumed checkpoint at %d workers differs from the uninterrupted run's (err %v)", workers, err)
		}
	}
}

// TestResumeRefusesForeignConfig: a snapshot from a different fleet shape
// must be refused, not silently blended, and left as it is. A run over
// the fleet's own complete snapshot reports it as it is.
func TestResumeRefusesForeignConfig(t *testing.T) {
	cfg := testConfig(4_000)
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	first := mustRun(t, cfg, Options{Seed: 9, CheckpointPath: path})
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.ScrubIntervalHours = 24
	for _, tc := range []struct {
		name string
		cfg  Config
		seed uint64
	}{{"scrub interval", other, 9}, {"seed", cfg, 10}} {
		if _, err := Run(context.Background(), tc.cfg, Options{Seed: tc.seed, CheckpointPath: path}); !errors.Is(err, checkpoint.ErrConfigMismatch) {
			t.Fatalf("resume under a different %s: %v, want ErrConfigMismatch", tc.name, err)
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("resume under a different %s changed the refused snapshot (err %v)", tc.name, err)
		}
	}

	if again := mustRun(t, cfg, Options{Seed: 9, CheckpointPath: path}); !reflect.DeepEqual(again, first) {
		t.Fatal("a run over the complete snapshot changed the Summary")
	}
}

// TestResumeRefusesVersionOneCheckpoint: version-1 snapshots hold tallies
// of the scalar skip-sampled streams under the same config hash, so a
// resuming fleet may not load one.
func TestResumeRefusesVersionOneCheckpoint(t *testing.T) {
	cfg := testConfig(4_000)
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := Options{Seed: 9, CheckpointPath: path}
	mustRun(t, cfg, opts)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpoint.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Version != fleetCheckpointVersion || fleetCheckpointVersion < 2 {
		t.Fatalf("fleet saved a v%d checkpoint; version %d is current", env.Version, fleetCheckpointVersion)
	}
	old, err := checkpoint.Marshal(env.Kind, 1, env.ConfigHash, env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg, opts); !errors.Is(err, checkpoint.ErrVersionMismatch) {
		t.Fatalf("resume from a v1 checkpoint: %v, want ErrVersionMismatch", err)
	}
}

// chi-squared upper-tail critical values at alpha = 0.001.
var chiSq001 = map[int]float64{
	1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467,
	5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
}

// TestArrivalsMatchTableIPoisson is the battery's third pillar: the
// per-DIMM fault-arrival histogram matches the Poisson law the Table I FIT
// rates imply, by chi-squared at alpha = 0.001 (bins merged to expected
// count >= 5). A doubled FIT table, a broken skip-sampler or a chunk
// boundary that loses trials all shift the histogram and fail here.
func TestArrivalsMatchTableIPoisson(t *testing.T) {
	cfg := testConfig(300_000)
	mean, err := cfg.ExpectedFaultsPerDIMM()
	if err != nil {
		t.Fatal(err)
	}
	sum := mustRun(t, cfg, Options{Seed: 3})

	n := float64(sum.Tally.DIMMs)
	exp := make([]float64, ArrivalBins)
	p := math.Exp(-mean) // P(k=0), then recurrence
	cum := 0.0
	for k := 0; k < ArrivalBins-1; k++ {
		exp[k] = n * p
		cum += p
		p *= mean / float64(k+1)
	}
	exp[ArrivalBins-1] = n * (1 - cum)

	obs := make([]float64, ArrivalBins)
	for k, c := range sum.Tally.Arrivals {
		obs[k] = float64(c)
	}
	// Merge the sparse tail until every bin expects >= 5 events.
	for len(exp) > 2 && exp[len(exp)-1] < 5 {
		exp[len(exp)-2] += exp[len(exp)-1]
		obs[len(obs)-2] += obs[len(obs)-1]
		exp, obs = exp[:len(exp)-1], obs[:len(obs)-1]
	}
	var x2 float64
	for i := range exp {
		d := obs[i] - exp[i]
		x2 += d * d / exp[i]
	}
	df := len(exp) - 1
	crit, ok := chiSq001[df]
	if !ok {
		t.Fatalf("no critical value for df=%d", df)
	}
	t.Logf("mean=%.5f bins=%d X2=%.2f crit(df=%d, a=0.001)=%.2f obs=%v", mean, len(exp), x2, df, crit, obs)
	if x2 > crit {
		t.Errorf("arrival histogram rejects Poisson(%.5f): X2=%.2f > %.2f (df=%d)\nobs=%v\nexp=%v",
			mean, x2, crit, df, obs, exp)
	}
}

// TestPolicyInvariantFaultStreams: retirement policies must change what
// happens to faults, never which faults arrive — retirement decisions draw
// no randomness.
func TestPolicyInvariantFaultStreams(t *testing.T) {
	base := testConfig(50_000)
	ref := mustRun(t, base, Options{Seed: 21})
	for _, spec := range []string{"on-first-ce", "threshold:2", "harp"} {
		cfg := base
		pol, err := ParsePolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol
		got := mustRun(t, cfg, Options{Seed: 21})
		if got.Tally.Faults != ref.Tally.Faults || got.Tally.Arrivals != ref.Tally.Arrivals {
			t.Errorf("policy %s changed the fault stream: faults %d vs %d, arrivals %v vs %v",
				spec, got.Tally.Faults, ref.Tally.Faults, got.Tally.Arrivals, ref.Tally.Arrivals)
		}
		if got.Tally.Failed > ref.Tally.Failed {
			t.Errorf("policy %s increased failures: %d > %d (retirement can only truncate fault lifetimes)",
				spec, got.Tally.Failed, ref.Tally.Failed)
		}
		if got.Tally.RetiredRows == 0 {
			t.Errorf("policy %s retired nothing over %d DIMMs", spec, cfg.DIMMs)
		}
	}
}

// TestPolicyEconomics: the qualitative ordering the repair-economics story
// rests on. CE-triggered retirement burns capacity on transient upsets the
// HARP profile correctly acquits, so on-first-ce must retire strictly more
// rows than harp at (here) equal reliability.
func TestPolicyEconomics(t *testing.T) {
	run := func(spec string) *Summary {
		cfg := testConfig(200_000)
		pol, err := ParsePolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol
		return mustRun(t, cfg, Options{Seed: 1})
	}
	none, firstCE, harp := run("none"), run("on-first-ce"), run("harp")
	if firstCE.Tally.Failed >= none.Tally.Failed {
		t.Errorf("on-first-ce did not improve on no retirement: %d vs %d failed",
			firstCE.Tally.Failed, none.Tally.Failed)
	}
	if firstCE.Tally.RetiredRows <= harp.Tally.RetiredRows {
		t.Errorf("on-first-ce should burn more rows than harp (transients): %d vs %d",
			firstCE.Tally.RetiredRows, harp.Tally.RetiredRows)
	}
	if none.SwapCostUSD() <= firstCE.SwapCostUSD() {
		t.Errorf("retirement should reduce swap cost: $%.0f vs $%.0f",
			none.SwapCostUSD(), firstCE.SwapCostUSD())
	}
	if got := none.MachineYears(); math.Abs(got-7*200_000) > 1e-6*got {
		t.Errorf("MachineYears = %v, want %v", got, 7*200_000)
	}
}

// TestHistoryAggregatesToFleetTallies: regenerating every DIMM's history
// one at a time must reproduce the fleet run's aggregate telemetry
// exactly — History replays the same substreams runChunk consumed.
func TestHistoryAggregatesToFleetTallies(t *testing.T) {
	cfg := testConfig(3_000)
	pol, _ := ParsePolicy("on-first-ce")
	cfg.Policy = pol
	opts := Options{Seed: 17}
	sum := mustRun(t, cfg, opts)

	var faults, failed, ces, ceNoInfo, retired uint64
	sawRecords := false
	for d := 0; d < cfg.DIMMs; d++ {
		h, err := History(cfg, opts, d)
		if err != nil {
			t.Fatalf("History(%d): %v", d, err)
		}
		faults += uint64(h.Arrivals)
		if !math.IsInf(h.FailTime, 1) {
			failed++
		}
		ces += h.CEs
		ceNoInfo += h.CENoInfo
		for _, r := range h.Retired {
			if r {
				retired++
			}
		}
		if len(h.Records) > 0 {
			sawRecords = true
		}
	}
	if !sawRecords {
		t.Fatalf("no DIMM carried records; test has no power")
	}
	if faults != sum.Tally.Faults || failed != sum.Tally.Failed ||
		ces != sum.Tally.CEs || ceNoInfo != sum.Tally.CENoInfo || retired != sum.Tally.RetiredRows {
		t.Errorf("per-DIMM histories do not sum to the fleet tally:\nhistories: faults=%d failed=%d ces=%d cenoinfo=%d retired=%d\nfleet:     faults=%d failed=%d ces=%d cenoinfo=%d retired=%d",
			faults, failed, ces, ceNoInfo, retired,
			sum.Tally.Faults, sum.Tally.Failed, sum.Tally.CEs, sum.Tally.CENoInfo, sum.Tally.RetiredRows)
	}
}

// TestHistoryJSONRoundTrip: histories must marshal even for survivors,
// whose in-memory FailTime is +Inf (rendered as null) — the -dimm CLI
// output depends on it.
func TestHistoryJSONRoundTrip(t *testing.T) {
	cfg := testConfig(100)
	h, err := History(cfg, Options{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal survivor history: %v", err)
	}
	var wire struct {
		FailTime *float64 `json:"fail_time_hours"`
		Kind     string   `json:"kind"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(h.FailTime, 1) && wire.FailTime != nil {
		t.Errorf("survivor fail_time_hours = %v, want null", *wire.FailTime)
	}
	if !math.IsInf(h.FailTime, 1) && (wire.FailTime == nil || *wire.FailTime != h.FailTime) {
		t.Errorf("failed DIMM fail_time_hours = %v, want %v", wire.FailTime, h.FailTime)
	}
	if wire.Kind != h.KindName {
		t.Errorf("kind = %q, want %q", wire.Kind, h.KindName)
	}
}

func TestHistoryRejectsOutOfRange(t *testing.T) {
	cfg := testConfig(100)
	if _, err := History(cfg, Options{}, -1); err == nil {
		t.Errorf("History(-1) succeeded")
	}
	if _, err := History(cfg, Options{}, 100); err == nil {
		t.Errorf("History(DIMMs) succeeded")
	}
}

// TestMCCountersConsistent: per-MC counters must sum to the fleet totals
// and land in the controller that hosts the DIMM.
func TestMCCountersConsistent(t *testing.T) {
	cfg := testConfig(10_000)
	cfg.DIMMsPerMC = 8
	sum := mustRun(t, cfg, Options{Seed: 2})
	if len(sum.MCs) != cfg.MCs() {
		t.Fatalf("len(MCs) = %d, want %d", len(sum.MCs), cfg.MCs())
	}
	var mc MCCounters
	for i := range sum.MCs {
		mc.add(&sum.MCs[i])
	}
	if mc.CE != sum.Tally.CEs || mc.CENoInfo != sum.Tally.CENoInfo ||
		mc.UE != sum.Tally.UEs || mc.UENoInfo != sum.Tally.UENoInfo {
		t.Errorf("per-MC sums %+v do not match tally (ce=%d cenoinfo=%d ue=%d uenoinfo=%d)",
			mc, sum.Tally.CEs, sum.Tally.CENoInfo, sum.Tally.UEs, sum.Tally.UENoInfo)
	}
	if sum.Tally.UEs != sum.Tally.DUEs-sum.Tally.UENoInfo {
		t.Errorf("UE accounting: ue=%d + ue_noinfo=%d != dues=%d",
			sum.Tally.UEs, sum.Tally.UENoInfo, sum.Tally.DUEs)
	}
}

// TestXEDFleetHasNoSDC mirrors the table4 conformance property at fleet
// scale: every XED failure is detected.
func TestXEDFleetHasNoSDC(t *testing.T) {
	sum := mustRun(t, testConfig(100_000), Options{Seed: 4})
	if sum.Tally.SDCs != 0 {
		t.Errorf("XED fleet logged %d SDCs; every XED failure should be detected", sum.Tally.SDCs)
	}
	if sum.Tally.Failed != sum.Tally.DUEs {
		t.Errorf("failed=%d != dues=%d under XED", sum.Tally.Failed, sum.Tally.DUEs)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
		ok   bool
	}{
		{"", Policy{Kind: PolicyNone}, true},
		{"none", Policy{Kind: PolicyNone}, true},
		{"on-first-ce", Policy{Kind: PolicyOnFirstCE}, true},
		{"harp", Policy{Kind: PolicyHARP}, true},
		{"threshold:1", Policy{Kind: PolicyThreshold, Threshold: 1}, true},
		{"threshold:12", Policy{Kind: PolicyThreshold, Threshold: 12}, true},
		{"threshold:0", Policy{}, false},
		{"threshold:-3", Policy{}, false},
		{"threshold:", Policy{}, false},
		{"threshold:x", Policy{}, false},
		{"bogus", Policy{}, false},
		{"THRESHOLD:2", Policy{}, false},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("ParsePolicy(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if tc.ok && got.String() != "" {
			if rt, err := ParsePolicy(got.String()); err != nil || rt != got {
				t.Errorf("ParsePolicy(%q).String() = %q does not round-trip", tc.spec, got.String())
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	mut := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	bad := map[string]Config{
		"zero dimms":       mut(func(c *Config) { c.DIMMs = 0 }),
		"negative dimms":   mut(func(c *Config) { c.DIMMs = -5 }),
		"dimms past bound": mut(func(c *Config) { c.DIMMs = chunkrun.MaxItems + 1 }),
		"max int dimms":    mut(func(c *Config) { c.DIMMs = math.MaxInt64 }),
		"zero horizon":     mut(func(c *Config) { c.HorizonHours = 0 }),
		"zero scrub":       mut(func(c *Config) { c.ScrubIntervalHours = 0 }),
		"zero mc group":    mut(func(c *Config) { c.DIMMsPerMC = 0 }),
		"zero dimm size":   mut(func(c *Config) { c.DIMMSizeMB = 0 }),
		"negative cost":    mut(func(c *Config) { c.CostPerSwapUSD = -1 }),
		"NaN cost":         mut(func(c *Config) { c.CostPerSwapUSD = math.NaN() }),
		"bad threshold":    mut(func(c *Config) { c.Policy = Policy{Kind: PolicyThreshold} }),
		"bad policy kind":  mut(func(c *Config) { c.Policy = Policy{Kind: PolicyKind(99)} }),
		"bad scheme":       mut(func(c *Config) { c.Scheme = "NoSuchScheme" }),
		"zero ranks":       mut(func(c *Config) { c.RanksPerDIMM = 0 }),
		"zero chips":       mut(func(c *Config) { c.ChipsPerRank = 0 }),
		"empty fits":       mut(func(c *Config) { c.FITs = nil }),
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("DefaultConfig does not validate: %v", err)
	}
	if got := good.MCs(); got != 1250 {
		t.Errorf("MCs() = %d, want 1250", got)
	}
	if got := good.Years(); got != 7 {
		t.Errorf("Years() = %d, want 7", got)
	}
}

// TestTrialSourceMeanMatchesConfig pins the exported seam the fleet ages
// DIMMs through: the unfiltered single-DIMM Poisson mean, against a direct
// recomputation from the FIT table.
func TestTrialSourceMeanMatchesConfig(t *testing.T) {
	cfg := DefaultConfig()
	mean, err := cfg.ExpectedFaultsPerDIMM()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	dimm := cfg.dimmConfig()
	chips := float64(dimm.TotalChips())
	for _, cls := range cfg.FITs {
		per := float64(cls.Rate) * 1e-9 * cfg.HorizonHours
		if cls.Gran == dram.GranChip { // one event per DIMM, not per chip
			want += per
			continue
		}
		want += per * chips
	}
	if math.Abs(mean-want) > 1e-12*want {
		t.Errorf("ExpectedFaultsPerDIMM = %v, want %v", mean, want)
	}
}

// TestResumeRefusesDoneBitPastChunkCount: a hash-valid snapshot whose
// bitmap marks a chunk past the last one would resume with more chunks
// done than exist and never be complete; it is refused.
func TestResumeRefusesDoneBitPastChunkCount(t *testing.T) {
	cfg := testConfig(8 * DefaultChunkSize) // 8 chunks
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	mustRun(t, cfg, Options{Seed: 9, CheckpointPath: path})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpoint.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var snap fleetSnapshot
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		t.Fatal(err)
	}
	snap.DoneChunks[0] |= 1 << 8
	b, err := checkpoint.Marshal(env.Kind, env.Version, env.ConfigHash, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), cfg, Options{Seed: 9, CheckpointPath: path})
	if !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("resume with chunk 8 of 8 marked done: %v, want ErrConfigMismatch", err)
	}
}

// TestRunSteadyStateAllocs pins what a warm fleet run allocates: per-run
// set-up (workers, tallies, the Summary), nothing per DIMM, per faulty
// DIMM or per retirement decision, so a 16x larger fleet stays within the
// same bound. The minimum over three seeds drops GC and scheduler noise.
// Chunk plans come from faultsim's pool, which -race empties at random.
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const bound = 64 << 10
	cfg := DefaultConfig()
	cfg.Policy = Policy{Kind: PolicyHARP}
	cfg.DIMMsPerMC = 65536
	for _, dimms := range []int{1 << 17, 1 << 21} {
		cfg.DIMMs = dimms
		mustRun(t, cfg, Options{Seed: 1, Workers: 2}) // warm
		least := uint64(math.MaxUint64)
		for seed := uint64(1); seed <= 3; seed++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mustRun(t, cfg, Options{Seed: seed, Workers: 2})
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d DIMMs: %d bytes allocated per run", dimms, least)
		if least > bound {
			t.Errorf("%d-DIMM harp fleet allocated %d bytes per run, want <= %d", dimms, least, bound)
		}
	}
}

// TestEveryFleetSchemeSurvivesEmptyDIMMs is the premise that lets a fleet
// count fault-free DIMMs without judging them: under every scheme a fleet
// can name, with or without the on-die code, an empty trial survives.
func TestEveryFleetSchemeSurvivesEmptyDIMMs(t *testing.T) {
	for _, name := range faultsim.SchemeNames() {
		for _, onDie := range []bool{false, true} {
			cfg := testConfig(100)
			cfg.Scheme, cfg.OnDie = name, onDie
			for _, out := range testWorker(t, &cfg, 1).ev.EvaluateInto(nil, nil) {
				if !math.IsInf(out.FailTime, 1) {
					t.Errorf("%s (on-die %v) fails a DIMM with no faults: %+v", name, onDie, out)
				}
			}
		}
	}
}

// TestFleetAndCampaignShareChunkPool: fleet workers borrow their chunk
// plans from the pool campaign workers plan and judge from, so fleets and
// campaigns running side by side must each give what they give alone.
func TestFleetAndCampaignShareChunkPool(t *testing.T) {
	cfg := testConfig(300_000)
	opts := Options{Seed: 6, Workers: 4}
	ccfg := faultsim.DefaultConfig()
	copts := faultsim.CampaignOptions{Trials: 1_000_000, Seed: 6, Workers: 4}
	campaign := func() (*faultsim.Report, error) {
		return faultsim.RunCampaign(context.Background(), ccfg, faultsim.AllSchemes(), copts)
	}
	wantFleet := mustRun(t, cfg, opts)
	wantCampaign, err := campaign()
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	fleets := make([]*Summary, rounds)
	campaigns := make([]*faultsim.Report, rounds)
	errs := make([]error, 2*rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			fleets[i], errs[2*i] = Run(context.Background(), cfg, opts)
		}()
		go func() {
			defer wg.Done()
			campaigns[i], errs[2*i+1] = campaign()
		}()
	}
	wg.Wait()
	for i := 0; i < rounds; i++ {
		if errs[2*i] != nil || errs[2*i+1] != nil {
			t.Fatalf("round %d: fleet %v, campaign %v", i, errs[2*i], errs[2*i+1])
		}
		if !reflect.DeepEqual(fleets[i], wantFleet) {
			t.Errorf("round %d: concurrent fleet %+v, alone %+v", i, fleets[i].Tally, wantFleet.Tally)
		}
		if !reflect.DeepEqual(campaigns[i], wantCampaign) {
			t.Errorf("round %d: concurrent campaign %+v, alone %+v", i, campaigns[i].Results, wantCampaign.Results)
		}
	}
}
