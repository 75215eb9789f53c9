package main

import (
	"strings"
	"testing"
	"time"

	"xedsim/internal/clitest"
	"xedsim/internal/dist"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// serveArgs returns a valid baseline.
func serveArgs() cliArgs {
	return cliArgs{addr: ":7600", leaseTimeout: dist.DefaultLeaseTTL}
}

// TestValidateArgs pins the exit-2 flag-validation contract.
func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliArgs)
		wantErr string // substring; empty = valid
	}{
		{"serve defaults", func(a *cliArgs) {}, ""},
		{"empty addr", func(a *cliArgs) { a.addr = "" }, "-addr"},
		{"negative lease timeout", func(a *cliArgs) { a.leaseTimeout = -time.Second }, "-lease-timeout"},
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
		{"bad engine", "-engine", "lanes"},
		{"bad generator", "-gen", "batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := clitest.Run(t, "-addr", "127.0.0.1:0", tc.flag, tc.value)
			if want := "flag provided but not defined: " + tc.flag; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
			}
		})
	}
	// A positional argument is a usage error; flag parsing would otherwise
	// stop at it and drop every flag after it.
	t.Run("stray argument", func(t *testing.T) {
		code, stderr := clitest.Run(t, "-addr", "127.0.0.1:0", "stray", "-lease-timeout", "10s")
		if want := "xedserver: unexpected arguments: [stray -lease-timeout 10s]\n"; code != 2 || !strings.HasPrefix(stderr, want) {
			t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
		}
	})
}
