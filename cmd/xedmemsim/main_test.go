package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/all.stdout.golden from the current command")

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestValidateArgs pins the flag-range validation behind the exit-2 usage
// convention.
func TestValidateArgs(t *testing.T) {
	valid := cliArgs{experiment: "fig11", instr: 100_000}
	if err := validateArgs(valid); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*cliArgs)
		want string
	}{
		{"zero instr", func(a *cliArgs) { a.instr = 0 }, "-instr"},
		{"negative instr", func(a *cliArgs) { a.instr = -1 }, "-instr"},
		{"unknown experiment", func(a *cliArgs) { a.experiment = "fig99" }, "unknown experiment"},
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

	// The comparison runs on GOMAXPROCS cores: -workers is gone.
	t.Run("negative workers", func(t *testing.T) { clitest.Undefined(t, "-workers", "-workers", "-1") })

	for _, exp := range []string{"all", "fig11", "fig12", "fig13", "fig14"} {
		a := valid
		a.experiment = exp
		if err := validateArgs(a); err != nil {
			t.Errorf("experiment %q rejected: %v", exp, err)
		}
	}
}

// TestGolden holds the whole stdout of `-experiment all -instr 5000` —
// Figures 11 to 14 through memsim.RunComparison — to
// testdata/all.stdout.golden; -update rewrites the file.
func TestGolden(t *testing.T) {
	code, stdout, stderr := clitest.Output(t, "-experiment", "all", "-instr", "5000")
	if code != 0 {
		t.Fatalf("exit %d; stderr %q", code, stderr)
	}
	clitest.Golden(t, filepath.Join("testdata", "all.stdout.golden"), []byte(stdout), *update)
}
