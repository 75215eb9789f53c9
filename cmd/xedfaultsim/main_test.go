package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xedsim/internal/clitest"
	"xedsim/internal/dist"
	"xedsim/internal/faultsim"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention: out-of-range values are rejected up front instead of
// violating Config invariants later (-scrub-hours -1) or silently
// disabling periodic snapshots (-checkpoint-every 0).
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{systems: 1000, ckptEvery: time.Second, experiment: "fig1"}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}
	// remote runs mut on valid args with -coordinator set.
	remote := func(mut func(*cliArgs)) func(*cliArgs) {
		return func(a *cliArgs) {
			a.coordinator = "http://localhost:7600"
			a.ckptEvery = faultsim.DefaultCheckpointInterval
			mut(a)
		}
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"negative scrub-hours", func(a *cliArgs) { a.scrub = -1 }, "-scrub-hours"},
		{"zero checkpoint-every", func(a *cliArgs) { a.ckptEvery = 0 }, "-checkpoint-every"},
		{"negative checkpoint-every", func(a *cliArgs) { a.ckptEvery = -time.Second }, "-checkpoint-every"},
		{"zero systems", func(a *cliArgs) { a.systems = 0 }, "-systems"},
		{"negative workers", func(a *cliArgs) { a.workers = -1 }, "-workers"},
		{"unknown experiment", func(a *cliArgs) { a.experiment = "fig99" }, "unknown experiment"},
		{"custom without schemes", func(a *cliArgs) { a.experiment = "custom" }, "-schemes"},
		{"schemes outside custom", func(a *cliArgs) { a.schemeList = "XED" }, "-schemes"},
		{"checkpoint with all", func(a *cliArgs) { a.experiment = "all"; a.ckptPath = "x.json" }, "-checkpoint"},
		{"resume without checkpoint", func(a *cliArgs) { a.resume = true }, "-resume"},
		{"unknown on-die code", func(a *cliArgs) { a.ondieCode = "crc16" }, "on-die code"},
		{"bad random code seed", func(a *cliArgs) { a.ondieCode = "random:x" }, "seed"},
		{"workers with coordinator", remote(func(a *cliArgs) { a.workers = 2 }), "-workers does not apply with -coordinator"},
		{"resume with coordinator", remote(func(a *cliArgs) { a.ckptPath, a.resume = "x.json", true }), "-resume does not apply with -coordinator"},
		{"checkpoint-every with coordinator", remote(func(a *cliArgs) { a.ckptEvery = time.Second }), "-checkpoint-every does not apply with -coordinator"},
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

	// One campaign path: -engine and -gen are gone, and naming either is a
	// usage error.
	for _, tc := range []struct{ name, flag, value string }{
		{"unknown engine", "-engine", "lanes"},
		{"unknown generator", "-gen", "batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := clitest.Run(t, tc.flag, tc.value)
			if want := "flag provided but not defined: " + tc.flag; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
			}
		})
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
