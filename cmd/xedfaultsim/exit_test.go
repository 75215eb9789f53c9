package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xedsim/internal/clitest"
	"xedsim/internal/obs"
)

// TestExitConventions runs the command to pin the conventions internal/cli
// gives every command: a usage error exits 2 with the command's name, the
// message and the flag usage; a runtime error exits 1 with the command's
// name; and -metrics-json leaves the final snapshot behind.
func TestExitConventions(t *testing.T) {
	code, stderr := clitest.Run(t, "-systems", "0")
	if code != 2 || !strings.HasPrefix(stderr, "xedfaultsim: -systems must be positive, got 0\n") || !strings.Contains(stderr, "-checkpoint-every") {
		t.Fatalf("usage error: exit %d, stderr %q", code, stderr)
	}

	// Flag parsing stops at a positional argument and would drop every flag
	// after it, so one is a usage error.
	code, stderr = clitest.Run(t, "-experiment", "fig7", "-systems", "1000", "stray", "-seed", "5")
	if code != 2 || !strings.HasPrefix(stderr, "xedfaultsim: unexpected arguments: [stray -seed 5]\n") {
		t.Fatalf("stray argument: exit %d, stderr %q", code, stderr)
	}

	// A repeated scheme would print two rows for one name.
	code, stderr = clitest.Run(t, "-experiment", "custom", "-schemes", "XED,XED", "-systems", "1000")
	if code != 2 || !strings.HasPrefix(stderr, `xedfaultsim: faultsim: scheme "XED" named twice`) {
		t.Fatalf("repeated scheme: exit %d, stderr %q", code, stderr)
	}

	code, stderr = clitest.Run(t, "-experiment", "fig7", "-systems", "1000", "-debug-addr", "256.0.0.1:1")
	if code != 1 || !strings.HasPrefix(stderr, "xedfaultsim: -debug-addr: ") {
		t.Fatalf("unusable -debug-addr: exit %d, stderr %q", code, stderr)
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	if code, stderr = clitest.Run(t, "-experiment", "fig7", "-systems", "1000", "-metrics-json", path); code != 0 {
		t.Fatalf("campaign: exit %d, stderr %q", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["campaign.trials_done"]; got != 1000 || !strings.HasSuffix(string(b), "}\n") {
		t.Fatalf("-metrics-json holds %d trials done (want 1000) in %d bytes", got, len(b))
	}
}
