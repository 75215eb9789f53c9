package main

import (
	"strings"
	"testing"
	"time"
)

func validBase() cliArgs {
	return cliArgs{
		dimms:     10_000,
		years:     7,
		scrub:     168,
		policy:    "none",
		scheme:    "XED",
		dimmsMC:   8,
		dimmsHist: -1,
		ckptEvery: 30 * time.Second,
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
		{"valid resume", func(a *cliArgs) { a.resume = true; a.ckptPath = "x.ckpt" }, ""},
		{"zero dimms", func(a *cliArgs) { a.dimms = 0 }, "-dimms"},
		{"negative dimms", func(a *cliArgs) { a.dimms = -100 }, "-dimms"},
		{"zero years", func(a *cliArgs) { a.years = 0 }, "-years"},
		{"negative years", func(a *cliArgs) { a.years = -1 }, "-years"},
		{"zero scrub", func(a *cliArgs) { a.scrub = 0 }, "-scrub-hours"},
		{"negative workers", func(a *cliArgs) { a.workers = -1 }, "-workers"},
		{"zero dimms-per-mc", func(a *cliArgs) { a.dimmsMC = 0 }, "-dimms-per-mc"},
		{"zero ckpt interval", func(a *cliArgs) { a.ckptEvery = 0 }, "-checkpoint-every"},
		{"bad policy", func(a *cliArgs) { a.policy = "retire-everything" }, "policy"},
		{"bad threshold", func(a *cliArgs) { a.policy = "threshold:0" }, "threshold"},
		{"bad scheme", func(a *cliArgs) { a.scheme = "NoSuchScheme" }, "NoSuchScheme"},
		{"history out of range", func(a *cliArgs) { a.dimmsHist = 10_000 }, "-dimm"},
		{"history below -1", func(a *cliArgs) { a.dimmsHist = -5 }, "-dimm"},
		{"resume without checkpoint", func(a *cliArgs) { a.resume = true }, "-resume"},
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
}
