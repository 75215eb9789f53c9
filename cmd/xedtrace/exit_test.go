package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xedsim/internal/clitest"
	"xedsim/internal/dram"
	"xedsim/internal/faultsim"
)

// TestExitConventions runs the command to pin its exit codes: a usage
// error or a positional argument exits 2, a captured trace reads back through -stats and -judge
// with exit 0, and -judge on a trace holding a record outside its
// config's fleet exits 1 naming the record.
func TestExitConventions(t *testing.T) {
	code, stderr := clitest.Run(t)
	if code != 2 || !strings.HasPrefix(stderr, "xedtrace: pick one of -capture, -judge or -stats\n") {
		t.Fatalf("usage error: exit %d, stderr %q", code, stderr)
	}

	code, stderr = clitest.Run(t, "stray", "-stats", "x.json")
	if code != 2 || !strings.HasPrefix(stderr, "xedtrace: unexpected arguments: [stray -stats x.json]\n") {
		t.Fatalf("stray argument: exit %d, stderr %q", code, stderr)
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	for _, args := range [][]string{
		{"-capture", "-trials", "2000", "-seed", "5", "-scaling", "1e-4", "-out", good},
		{"-stats", good},
		{"-judge", good},
	} {
		if code, stderr := clitest.Run(t, args...); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
	}

	tr := &faultsim.Trace{Config: faultsim.DefaultConfig(), Trials: make([][]faultsim.FaultRecord, 3)}
	tr.Trials[2] = []faultsim.FaultRecord{{Channel: tr.Config.Channels, Gran: dram.GranChip, Start: 1, End: 2}}
	bad := filepath.Join(dir, "bad.json")
	f, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, stderr = clitest.Run(t, "-judge", bad)
	if code != 1 || !strings.HasPrefix(stderr, "xedtrace: faultsim: trace trial 2 record 0 lies outside") {
		t.Fatalf("out-of-fleet trace: exit %d, stderr %q", code, stderr)
	}
}
