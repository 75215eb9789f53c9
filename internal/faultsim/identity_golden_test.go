package faultsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.golden from the current campaign engine")

const identityGoldenFile = "testdata/identity.golden"

// identityTrials spans three full chunks and a partial fourth.
const identityTrials = 3*DefaultChunkSize + 100

// identityCase is one campaign of the pinned matrix.
type identityCase struct {
	key string
	cfg Config
}

// identityCases lists the matrix: the §III default and one variant for
// each planning and judging corner. short keeps the default, the
// scaling-fatal corner and bathtub aging.
func identityCases(short bool) []identityCase {
	variant := func(key string, set func(*Config)) identityCase {
		cfg := DefaultConfig()
		set(&cfg)
		return identityCase{key: key, cfg: cfg}
	}
	all := []identityCase{
		variant("default", func(*Config) {}),
		variant("scaling=1e-4", func(c *Config) { c.ScalingRate = 1e-4 }),
		variant("ondie=off,scaling=1e-4", func(c *Config) { c.OnDie, c.ScalingRate = false, 1e-4 }),
		variant("address-overlap", func(c *Config) { c.RequireAddressOverlap = true }),
		variant("aging=bathtub", func(c *Config) { c.Aging = BathtubAging() }),
		variant("ranks=4", func(c *Config) { c.RanksPerChannel = 4 }),
		variant("scrub=24h", func(c *Config) { c.ScrubIntervalHours = 24 }),
	}
	if !short {
		return all
	}
	return []identityCase{all[0], all[2], all[4]}
}

// identityLine renders a campaign's key, its config hash (the service's
// job ID) and the SHA-256 of the checkpoint file RunCampaign leaves.
func identityLine(t *testing.T, c identityCase, dir string) string {
	t.Helper()
	opts := CampaignOptions{Trials: identityTrials, Seed: 7, Workers: 2,
		CheckpointPath: filepath.Join(dir, strings.NewReplacer("=", "-", ",", "-").Replace(c.key)+".ckpt")}
	m, err := NewMerger(c.cfg, AllSchemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(context.Background(), c.cfg, AllSchemes(), opts); err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	b, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s\tjob=%s\tcheckpoint=%s", c.key, m.Hash(), hex.EncodeToString(sum[:]))
}

// TestIdentityGolden pins what names a campaign and what it leaves behind:
// for each config of the matrix, run over all six schemes, the config hash
// and the checkpoint bytes. Regenerate with
//
//	go test ./internal/faultsim -run TestIdentityGolden -update
//
// and review the diff: a change that claims the same results must leave
// the file as it is.
func TestIdentityGolden(t *testing.T) {
	cases := identityCases(testing.Short() && !*update)
	dir := t.TempDir()
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = identityLine(t, c, dir)
	}
	if *update {
		if err := os.WriteFile(identityGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d campaigns to %s", len(got), identityGoldenFile)
		return
	}
	want := readGoldenLines(t, identityGoldenFile)
	for _, line := range got {
		key, _, _ := strings.Cut(line, "\t")
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: missing from %s (rerun with -update)", key, identityGoldenFile)
		case w != line:
			t.Errorf("campaign identity changed:\n got %s\nwant %s", line, w)
		}
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("%s holds %d campaigns, the matrix has %d", identityGoldenFile, len(want), len(got))
	}
}

// readGoldenLines loads a golden file keyed by each line's text up to its
// first tab.
func readGoldenLines(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		want[key] = line
	}
	return want
}
