package main

import (
	"strings"
	"testing"

	"xedsim/internal/faultsim"
)

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention.
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{experiment: "all", code: "random:1", words: 32, weak: 4, broken: 2, rounds: 8}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"unknown experiment", func(a *cliArgs) { a.experiment = "beerharp" }, "unknown experiment"},
		{"unknown code", func(a *cliArgs) { a.code = "crc16" }, "on-die code"},
		{"bad random seed", func(a *cliArgs) { a.code = "random:x" }, "seed"},
		{"zero words", func(a *cliArgs) { a.words = 0 }, "-words"},
		{"negative weak", func(a *cliArgs) { a.weak = -1 }, "-weak"},
		{"negative broken", func(a *cliArgs) { a.broken = -1 }, "-broken"},
		{"plants exceed words", func(a *cliArgs) { a.weak = 30; a.broken = 3 }, "exceeds -words"},
		{"zero rounds", func(a *cliArgs) { a.rounds = 0 }, "-rounds"},
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

	for _, exp := range []string{"all", "beer", "harp"} {
		a := valid
		a.experiment = exp
		if err := validateArgs(a); err != nil {
			t.Errorf("experiment %q rejected: %v", exp, err)
		}
	}
	for _, code := range []string{"", "crc8", "hamming", "hsiao", "random:42"} {
		a := valid
		a.code = code
		if err := validateArgs(a); err != nil {
			t.Errorf("code %q rejected: %v", code, err)
		}
	}
}

// TestExperimentsSucceed drives both experiments end to end on small
// configurations; each must report success against every code family.
func TestExperimentsSucceed(t *testing.T) {
	for _, spec := range []string{"crc8", "hamming", "hsiao", "random:3"} {
		a := cliArgs{experiment: "all", code: spec, words: 8, weak: 2, broken: 1, rounds: 2, seed: 5}
		if err := validateArgs(a); err != nil {
			t.Fatal(err)
		}
		code, err := faultsim.ParseOnDieCode(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !runBEER(code, a) {
			t.Errorf("%s: BEER run failed", spec)
		}
		if !runHARP(code, a) {
			t.Errorf("%s: HARP run failed", spec)
		}
	}
}
