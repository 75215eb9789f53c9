package main

import (
	"strings"
	"testing"
	"time"

	"xedsim/internal/clitest"
	"xedsim/internal/dist"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// serveArgs returns a valid serve-mode baseline.
func serveArgs() cliArgs {
	return cliArgs{
		addr:         ":7600",
		queueDepth:   dist.DefaultQueueDepth,
		leaseTimeout: dist.DefaultLeaseTTL,
		unitChunks:   dist.DefaultUnitChunks,
		persistEvery: dist.DefaultPersistInterval,
		systems:      1,
	}
}

// submitArgs returns a valid submit-mode baseline.
func submitArgs() cliArgs {
	a := serveArgs()
	a.submit = true
	a.coordinator = "http://localhost:7600"
	a.schemeList = "XED"
	a.systems = 1000
	return a
}

// TestValidateArgs pins the exit-2 flag-validation contract for both
// modes.
func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliArgs)
		wantErr string // substring; empty = valid
	}{
		{"serve defaults", func(a *cliArgs) {}, ""},
		{"submit baseline", func(a *cliArgs) { *a = submitArgs() }, ""},
		{"empty addr", func(a *cliArgs) { a.addr = "" }, "-addr"},
		{"zero queue depth", func(a *cliArgs) { a.queueDepth = 0 }, "-queue-depth"},
		{"negative lease timeout", func(a *cliArgs) { a.leaseTimeout = -time.Second }, "-lease-timeout"},
		{"zero unit chunks", func(a *cliArgs) { a.unitChunks = 0 }, "-unit-chunks"},
		{"zero persist interval", func(a *cliArgs) { a.persistEvery = 0 }, "-persist-every"},
		{"coordinator without submit", func(a *cliArgs) { a.coordinator = "http://x" }, "-coordinator only applies"},
		{"out without submit", func(a *cliArgs) { a.outPath = "x.ckpt" }, "-out only applies"},
		{"submit without coordinator", func(a *cliArgs) { *a = submitArgs(); a.coordinator = "" }, "-coordinator"},
		{"submit without schemes", func(a *cliArgs) { *a = submitArgs(); a.schemeList = "" }, "-schemes"},
		{"submit zero systems", func(a *cliArgs) { *a = submitArgs(); a.systems = 0 }, "-systems"},
		{"submit negative scrub", func(a *cliArgs) { *a = submitArgs(); a.scrub = -1 }, "-scrub-hours"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := serveArgs()
			tc.mutate(&a)
			err := validateArgs(a)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid args rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// One campaign path: -engine and -gen are gone, and naming either is a
	// usage error.
	for _, tc := range []struct{ name, flag, value string }{
		{"submit bad engine", "-engine", "lanes"},
		{"submit bad generator", "-gen", "batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := clitest.Run(t, "-submit", "-coordinator", "http://127.0.0.1:1", "-schemes", "XED", tc.flag, tc.value)
			if want := "flag provided but not defined: " + tc.flag; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
			}
		})
	}
	// A positional argument is a usage error; flag parsing would otherwise
	// stop at it and drop every flag after it.
	t.Run("stray argument", func(t *testing.T) {
		code, stderr := clitest.Run(t, "-submit", "stray", "-coordinator", "http://127.0.0.1:1", "-schemes", "XED")
		if want := "xedserver: unexpected arguments: [stray -coordinator http://127.0.0.1:1 -schemes XED]\n"; code != 2 || !strings.HasPrefix(stderr, want) {
			t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
		}
	})
}
