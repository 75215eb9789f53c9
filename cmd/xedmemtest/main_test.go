package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xedsim/internal/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current command")

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestNonPowerOfTwoBanksExits2: the address map's XOR bank hash stays
// inside the chip only for a power-of-two bank count, so -banks 3 is
// refused with the mapper's error. A Go panic also exits 2, so the test
// also requires that no panic trace appears.
func TestNonPowerOfTwoBanksExits2(t *testing.T) {
	code, stderr := clitest.Run(t, "-banks", "3", "-rows", "4")
	if code != 2 || !strings.HasPrefix(stderr, "xedmemtest: dram: mapper needs a power-of-two bank count") || strings.Contains(stderr, "panic:") {
		t.Fatalf("-banks 3: exit %d, stderr %q", code, stderr)
	}
}

// TestGolden holds two whole runs — stdout, exit code and the
// -metrics-json snapshot — to testdata/<name>.stdout.golden and
// testdata/<name>.metrics.golden; -update rewrites both files.
//
// The failing run is pinned as it stands: a killed chip among scaling
// faults reaches the single-erasure rebuild with the killed chip's
// undetected wrong word and returns 3 wrong lines per pattern (see the
// ROADMAP's functional-harness item).
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"kill-chip", []string{"-rows", "8", "-kill-chip", "3"}, 0},
		{"scaling-kill-chip", []string{"-rows", "8", "-scaling", "1e-4", "-kill-chip", "5", "-passes", "2"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "metrics.json")
			code, stdout, stderr := clitest.Output(t, append(tc.args, "-metrics-json", metrics)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, tc.code, stderr)
			}
			snap, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			for suffix, got := range map[string][]byte{".stdout.golden": []byte(stdout), ".metrics.golden": snap} {
				clitest.Golden(t, filepath.Join("testdata", tc.name+suffix), got, *update)
			}
		})
	}
}
