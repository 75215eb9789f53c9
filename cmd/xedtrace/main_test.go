package main

import (
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention: exactly one mode, range-checked capture parameters.
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{capture: true, out: "trace.json", trials: 1000}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid capture args rejected: %v", err)
	}
	for _, a := range []cliArgs{
		{judge: "trace.json"},
		{stats: "trace.json"},
	} {
		if err := validateArgs(a); err != nil {
			t.Fatalf("valid args %+v rejected: %v", a, err)
		}
	}

	cases := []struct {
		name string
		args cliArgs
		want string
	}{
		{"no mode", cliArgs{}, "pick one"},
		{"capture+judge", cliArgs{capture: true, out: "x", trials: 1, judge: "t.json"}, "mutually exclusive"},
		{"judge+stats", cliArgs{judge: "a.json", stats: "b.json"}, "mutually exclusive"},
		{"capture empty out", cliArgs{capture: true, trials: 1}, "-out"},
		{"capture zero trials", cliArgs{capture: true, out: "x", trials: 0}, "-trials"},
		{"capture negative scaling", cliArgs{capture: true, out: "x", trials: 1, scaling: -0.1}, "-scaling"},
		{"capture scaling above 1", cliArgs{capture: true, out: "x", trials: 1, scaling: 1.5}, "-scaling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateArgs(tc.args)
			if err == nil {
				t.Fatalf("%+v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// Judge/stats modes ignore capture-only parameters, even at their
	// (irrelevant) zero values.
	if err := validateArgs(cliArgs{judge: "t.json", trials: 0, out: ""}); err != nil {
		t.Fatalf("judge mode rejected capture-parameter zero values: %v", err)
	}
}
