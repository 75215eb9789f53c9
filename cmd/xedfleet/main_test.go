package main

import (
	"math"
	"strings"
	"testing"

	"xedsim/internal/chunkrun"
	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func validBase() cliArgs {
	return cliArgs{
		dimms:     10_000,
		years:     7,
		scrub:     168,
		policy:    "none",
		scheme:    "XED",
		dimmsMC:   8,
		dimmsHist: -1,
	}
}

// TestValidateArgs pins the exit-2 surface: every malformed flag
// combination must be caught at validation time, before any simulation.
func TestValidateArgs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliArgs)
		wantErr string
	}{
		{"valid", func(a *cliArgs) {}, ""},
		{"valid harp", func(a *cliArgs) { a.policy = "harp" }, ""},
		{"valid threshold", func(a *cliArgs) { a.policy = "threshold:3" }, ""},
		{"valid history", func(a *cliArgs) { a.dimmsHist = 9_999 }, ""},
		{"valid checkpoint", func(a *cliArgs) { a.ckptPath = "x.ckpt" }, ""},
		{"zero dimms", func(a *cliArgs) { a.dimms = 0 }, "-dimms"},
		{"negative dimms", func(a *cliArgs) { a.dimms = -100 }, "-dimms"},
		{"dimms past bound", func(a *cliArgs) { a.dimms = chunkrun.MaxItems + 1 }, "-dimms must be at most"},
		{"max int dimms", func(a *cliArgs) { a.dimms = math.MaxInt64 }, "-dimms must be at most"},
		{"zero years", func(a *cliArgs) { a.years = 0 }, "-years"},
		{"negative years", func(a *cliArgs) { a.years = -1 }, "-years"},
		{"zero scrub", func(a *cliArgs) { a.scrub = 0 }, "-scrub-hours"},
		{"zero dimms-per-mc", func(a *cliArgs) { a.dimmsMC = 0 }, "-dimms-per-mc"},
		{"bad policy", func(a *cliArgs) { a.policy = "retire-everything" }, "policy"},
		{"bad threshold", func(a *cliArgs) { a.policy = "threshold:0" }, "threshold"},
		{"bad scheme", func(a *cliArgs) { a.scheme = "NoSuchScheme" }, "NoSuchScheme"},
		{"history out of range", func(a *cliArgs) { a.dimmsHist = 10_000 }, "-dimm"},
		{"history below -1", func(a *cliArgs) { a.dimmsHist = -5 }, "-dimm"},
	}
	for _, tc := range cases {
		a := validBase()
		tc.mutate(&a)
		err := validateArgs(a)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validateArgs accepted %+v", tc.name, a)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// The checkpoint is the resume point, its save interval a constant and
	// the core count GOMAXPROCS: naming the flags that set them is a usage
	// error.
	for _, flag := range []string{"-resume", "-checkpoint-every", "-workers"} {
		t.Run(flag[1:], func(t *testing.T) { clitest.Undefined(t, flag, "-checkpoint", "x.ckpt", flag) })
	}
}

// TestHugeFleetExits2: a fleet past chunkrun.MaxItems DIMMs is a usage
// error, not a panic in the chunk arithmetic.
func TestHugeFleetExits2(t *testing.T) {
	for _, n := range []string{"274877906945", "9223372036854775807"} {
		code, stderr := clitest.Run(t, "-dimms", n)
		if code != 2 || !strings.HasPrefix(stderr, "xedfleet: -dimms must be at most 274877906944, got "+n+"\n") {
			t.Fatalf("-dimms %s: exit %d, stderr %q", n, code, stderr)
		}
	}
}
