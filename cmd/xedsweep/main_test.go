package main

import (
	"math"
	"strings"
	"testing"

	"xedsim/internal/chunkrun"
	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention.
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{sweep: "fit", systems: 1000}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"zero systems", func(a *cliArgs) { a.systems = 0 }, "-systems"},
		{"negative systems", func(a *cliArgs) { a.systems = -5 }, "-systems"},
		{"systems past bound", func(a *cliArgs) { a.systems = chunkrun.MaxItems + 1 }, "-systems must be at most"},
		{"max int systems", func(a *cliArgs) { a.systems = math.MaxInt64 }, "-systems must be at most"},
		{"unknown sweep", func(a *cliArgs) { a.sweep = "voltage" }, "unknown sweep"},
		{"empty sweep", func(a *cliArgs) { a.sweep = "" }, "unknown sweep"},
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

	// One campaign path: -engine and -gen are gone; the campaigns compute
	// on GOMAXPROCS cores, so -workers is gone too. Naming any of them is
	// a usage error.
	for _, tc := range []struct{ name, flag, value string }{
		{"unknown engine", "-engine", "lanes"},
		{"unknown generator", "-gen", "batch"},
		{"negative workers", "-workers", "-1"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.Undefined(t, tc.flag, tc.flag, tc.value) })
	}

	// A positional argument is a usage error; flag parsing would otherwise
	// stop at it and drop every flag after it.
	t.Run("stray argument", func(t *testing.T) {
		code, stderr := clitest.Run(t, "-systems", "1000", "stray", "-sweep", "silent")
		if want := "xedsweep: unexpected arguments: [stray -sweep silent]\n"; code != 2 || !strings.HasPrefix(stderr, want) {
			t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
		}
	})

	for _, sweep := range []string{"fit", "scrub", "scaling", "silent", "aging"} {
		a := valid
		a.sweep = sweep
		if err := validateArgs(a); err != nil {
			t.Errorf("sweep %q rejected: %v", sweep, err)
		}
	}
}
