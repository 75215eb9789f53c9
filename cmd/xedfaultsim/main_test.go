package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xedsim/internal/chunkrun"
	"xedsim/internal/clitest"
	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention: out-of-range values are rejected up front instead of
// violating Config invariants later (-scrub-hours -1).
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{systems: 1000, experiment: "fig1"}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}
	// remote runs mut on valid args with -coordinator set.
	remote := func(mut func(*cliArgs)) func(*cliArgs) {
		return func(a *cliArgs) {
			a.coordinator = "http://localhost:7600"
			mut(a)
		}
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"negative scrub-hours", func(a *cliArgs) { a.scrub = -1 }, "-scrub-hours"},
		{"zero systems", func(a *cliArgs) { a.systems = 0 }, "-systems"},
		{"systems past bound", func(a *cliArgs) { a.systems = chunkrun.MaxItems + 1 }, "-systems must be at most"},
		{"max int systems", func(a *cliArgs) { a.systems = math.MaxInt64 }, "-systems must be at most"},
		{"unknown experiment", func(a *cliArgs) { a.experiment = "fig99" }, "unknown experiment"},
		{"custom without schemes", func(a *cliArgs) { a.experiment = "custom" }, "-schemes"},
		{"schemes outside custom", func(a *cliArgs) { a.schemeList = "XED" }, "-schemes"},
		{"checkpoint with all", func(a *cliArgs) { a.experiment = "all"; a.ckptPath = "x.json" }, "-checkpoint"},
		{"unknown on-die code", func(a *cliArgs) { a.ondieCode = "crc16" }, "on-die code"},
		{"bad random code seed", func(a *cliArgs) { a.ondieCode = "random:x" }, "seed"},
		{"progress with coordinator", remote(func(a *cliArgs) { a.progress = true }), "-progress does not apply with -coordinator"},
		{"metrics-json with coordinator", remote(func(a *cliArgs) { a.metricsJSON = "m.json" }), "-metrics-json does not apply with -coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := valid
			tc.mut(&a)
			err := validateArgs(a)
			if err == nil {
				t.Fatalf("%+v accepted", a)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// One campaign path: -engine and -gen are gone. The checkpoint is the
	// resume point, its save interval a constant and the core count
	// GOMAXPROCS, so -resume, -checkpoint-every and -workers are gone too.
	// Naming any of them is a usage error, with or without -coordinator.
	const coord = "http://localhost:7600"
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"unknown engine", "-engine", []string{"-engine", "lanes"}},
		{"unknown generator", "-gen", []string{"-gen", "batch"}},
		{"zero checkpoint-every", "-checkpoint-every", []string{"-checkpoint", "x.ckpt", "-checkpoint-every", "0"}},
		{"negative checkpoint-every", "-checkpoint-every", []string{"-checkpoint-every", "-1s"}},
		{"negative workers", "-workers", []string{"-workers", "-1"}},
		{"resume without checkpoint", "-resume", []string{"-resume"}},
		{"workers with coordinator", "-workers", []string{"-coordinator", coord, "-workers", "2"}},
		{"resume with coordinator", "-resume", []string{"-coordinator", coord, "-checkpoint", "x.ckpt", "-resume"}},
		{"checkpoint-every with coordinator", "-checkpoint-every", []string{"-coordinator", coord, "-checkpoint-every", "1s"}},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.Undefined(t, tc.flag, tc.args...) })
	}

	// -coordinator with a checkpoint file and the local defaults is valid.
	svc := valid
	remote(func(a *cliArgs) { a.ckptPath = "x.json" })(&svc)
	if err := validateArgs(svc); err != nil {
		t.Fatalf("-coordinator rejected: %v", err)
	}

	// A zero scrub override is "keep the config default", not an error.
	ok := valid
	ok.scrub = 0
	if err := validateArgs(ok); err != nil {
		t.Fatalf("-scrub-hours 0 rejected: %v", err)
	}

	// Every code family is a valid -ondie-code override.
	for _, spec := range []string{"crc8", "hamming", "hsiao", "random:7"} {
		a := valid
		a.ondieCode = spec
		if err := validateArgs(a); err != nil {
			t.Errorf("-ondie-code %s rejected: %v", spec, err)
		}
	}
}

// TestCoordinatorMatchesLocal: a campaign run with -coordinator, through an
// in-process coordinator and worker, prints the local run's stdout byte for
// byte, and its -checkpoint file holds the local run's bytes.
func TestCoordinatorMatchesLocal(t *testing.T) {
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		dist.NewWorker(dist.WorkerOptions{ID: "w", Coordinator: srv.URL, Parallel: 2}).Run(ctx) //nolint:errcheck
	}()
	defer func() { cancel(); <-worked }()

	dir := t.TempDir()
	for i, args := range [][]string{
		{"-experiment", "custom", "-schemes", "ECC-DIMM (SECDED),XED", "-systems", "600000", "-seed", "7"},
		{"-experiment", "fig8", "-systems", "300000", "-seed", "3"},
	} {
		var stdout, ckpt [2]string
		for j, extra := range [][]string{nil, {"-coordinator", srv.URL}} {
			path := filepath.Join(dir, fmt.Sprintf("run%d-%d.ckpt", i, j))
			code, out, stderr := clitest.Output(t, append(append(args, "-checkpoint", path), extra...)...)
			if code != 0 {
				t.Fatalf("%v %v: exit %d, stderr %q", args, extra, code, stderr)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			stdout[j], ckpt[j] = out, string(b)
		}
		if stdout[1] != stdout[0] {
			t.Errorf("%v: -coordinator printed\n%s\nthe local run\n%s", args, stdout[1], stdout[0])
		}
		if ckpt[1] != ckpt[0] {
			t.Errorf("%v: -coordinator's checkpoint (%d bytes) differs from the local run's (%d bytes)", args, len(ckpt[1]), len(ckpt[0]))
		}
	}
}

// TestCheckpointIsTheResumePoint: -checkpoint F starts fresh when F is
// missing, continues a partial snapshot of the same campaign to the
// uninterrupted run's stdout and bytes, reports a complete one as it is,
// and refuses another campaign's snapshot, leaving F unchanged, with exit
// 1 and nothing on stdout. So does a run whose F cannot be written, before
// it computes anything.
func TestCheckpointIsTheResumePoint(t *testing.T) {
	args := []string{"-experiment", "custom", "-schemes", "ECC-DIMM (SECDED),XED", "-systems", "400000", "-seed", "7"}
	dir := t.TempDir()
	run := func(path string, extra ...string) (code int, stdout, stderr string) {
		t.Helper()
		a := append(append([]string(nil), args...), extra...)
		if path != "" {
			a = append(a, "-checkpoint", path)
		}
		return clitest.Output(t, a...)
	}
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	_, ref, _ := run("")
	full := filepath.Join(dir, "full.ckpt")
	if code, out, stderr := run(full); code != 0 || out != ref {
		t.Fatalf("fresh run over a missing file: exit %d, stderr %q, stdout\n%s\nwant\n%s", code, stderr, out, ref)
	}
	want := read(full)
	if code, out, stderr := run(full); code != 0 || out != ref || read(full) != want {
		t.Fatalf("rerun over a complete snapshot: exit %d, stderr %q; stdout or bytes changed", code, stderr)
	}

	// A partial snapshot of the same campaign, as an interrupted run leaves.
	partial := filepath.Join(dir, "partial.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := faultsim.RunCampaign(ctx, faultsim.DefaultConfig(),
		[]faultsim.Scheme{faultsim.NewSECDED(), faultsim.NewXED()},
		faultsim.CampaignOptions{Trials: 400_000, Seed: 7, Workers: 2, CheckpointPath: partial, OnChunk: func(done, total int) {
			if done >= total/3 {
				cancel()
			}
		}})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v", err)
	}
	if code, out, stderr := run(partial); code != 0 || out != ref || read(partial) != want {
		t.Fatalf("rerun over a partial snapshot: exit %d, stderr %q; stdout or bytes differ from the uninterrupted run's", code, stderr)
	}

	code, out, stderr := run(full, "-seed", "8")
	if code != 1 || out != "" || !strings.Contains(stderr, full+" was produced by a different configuration") ||
		!strings.Contains(stderr, "remove it or choose another checkpoint path") {
		t.Fatalf("another campaign's snapshot: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	if read(full) != want {
		t.Fatal("the refused snapshot changed")
	}

	missing := filepath.Join(dir, "missing", "x.ckpt")
	code, out, stderr = run(missing, "-systems", "1000000000")
	if code != 1 || out != "" || !strings.Contains(stderr, missing) {
		t.Fatalf("unwritable checkpoint: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
}
