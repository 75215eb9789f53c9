package xedsim_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples/*.golden from the current examples")

// TestExamplesSmoke builds and runs each examples/ program end to end. The
// functional-model examples are deterministic, so their whole stdout is
// held to testdata/examples/<name>.golden (-update rewrites the files);
// the two campaign-backed ones must exit 0 and print a marker line that
// only appears after the example's full scenario has completed. The
// examples are the repo's executable documentation — they must not rot as
// the libraries underneath move.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run full scenarios; skipped in -short")
	}
	cases := []struct {
		dir string
		// marker, when set, is the example's closing claim, printed
		// after every assertion in the program has already passed; an
		// empty marker compares stdout with the golden file instead.
		marker string
	}{
		{dir: "quickstart"},
		{dir: "reliability", marker: "with scaling faults at 1e-4"},
		{dir: "diagnosis"},
		{dir: "performance", marker: "the Figure 11 mechanism"},
		{dir: "doublechipkill"},
		{dir: "inference"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(t.TempDir(), tc.dir)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+tc.dir)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
			run := exec.Command(bin)
			var stderr strings.Builder
			run.Stderr = &stderr
			out, err := run.Output()
			if err != nil {
				t.Fatalf("run failed: %v\n%s%s", err, out, stderr.String())
			}
			if tc.marker != "" {
				if !strings.Contains(string(out), tc.marker) {
					t.Fatalf("output does not contain marker %q:\n%s", tc.marker, out)
				}
				return
			}
			golden := filepath.Join("testdata", "examples", tc.dir+".golden")
			if *update {
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if string(out) != string(want) {
				t.Fatalf("stdout differs from %s (run with -update to accept):\ngot:\n%s\nwant:\n%s", golden, out, want)
			}
		})
	}
}
