package main

import (
	"strings"
	"testing"
	"time"

	"xedsim/internal/clitest"
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
