package main

import (
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention, including claim-name resolution: a typo in -claims must be
// a usage error, not an empty (vacuously green) run.
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{batch: 1000, maxTrials: 10000, configs: 10, trialsPerConfig: 5}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"zero batch", func(a *cliArgs) { a.batch = 0 }, "-batch"},
		{"max-trials below batch", func(a *cliArgs) { a.maxTrials = 999 }, "-max-trials"},
		{"zero configs", func(a *cliArgs) { a.configs = 0 }, "-configs"},
		{"zero trials-per-config", func(a *cliArgs) { a.trialsPerConfig = 0 }, "-trials-per-config"},
		{"unknown claim", func(a *cliArgs) { a.claims = "fig7/no-such-claim" }, "unknown claim"},
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
	// on GOMAXPROCS cores, or on the service's workers, so -workers is gone
	// too. Naming any of them is a usage error.
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"unknown engine", "-engine", []string{"-engine", "lanes"}},
		{"unknown generator", "-gen", []string{"-gen", "batch"}},
		{"negative workers", "-workers", []string{"-workers", "-1"}},
		{"workers with coordinator", "-workers", []string{"-coordinator", "http://localhost:7600", "-workers", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.Undefined(t, tc.flag, tc.args...) })
	}

	// A positional argument is a usage error; flag parsing would otherwise
	// stop at it and drop every flag after it.
	t.Run("stray argument", func(t *testing.T) {
		code, stderr := clitest.Run(t, "-list", "stray", "-claims", "table1/fit-inputs")
		if want := "xedverify: unexpected arguments: [stray -claims table1/fit-inputs]\n"; code != 2 || !strings.HasPrefix(stderr, want) {
			t.Fatalf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
		}
	})

	// Known claim names — with surrounding whitespace and a trailing comma
	// — resolve.
	ok := valid
	ok.claims = " table1/fit-inputs , fig7/xed-over-secded-10x,"
	if err := validateArgs(ok); err != nil {
		t.Fatalf("known claims rejected: %v", err)
	}

	// -coordinator alone is valid (service-backed campaigns).
	svc := valid
	svc.coordinator = "http://localhost:7600"
	if err := validateArgs(svc); err != nil {
		t.Fatalf("-coordinator rejected: %v", err)
	}
}

// TestSelectedClaimsOrder: -claims picks claims in the order given, not
// table order.
func TestSelectedClaimsOrder(t *testing.T) {
	claims, err := selectedClaims("fig7/xed-over-secded-10x,table1/fit-inputs")
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 2 || claims[0].Name != "fig7/xed-over-secded-10x" || claims[1].Name != "table1/fit-inputs" {
		t.Fatalf("unexpected selection: %+v", claims)
	}
}
