package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.golden from the current fleet engine")

const identityGoldenFile = "testdata/identity.golden"

// identityDIMMs spans three full chunks and a partial fourth.
const identityDIMMs = 3*DefaultChunkSize + 100

// identityHistoryFrom picks the replayed DIMMs: the first faulty DIMM at or
// after each of these, one in the first chunk, one mid-fleet and one in the
// partial last chunk.
var identityHistoryFrom = []int{0, 1500, 3 * DefaultChunkSize}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// identityLines renders one policy's lines: the SHA-256 of the Summary
// JSON, the EDAC dump and the checkpoint file, then the History JSON of
// each replayed DIMM.
func identityLines(t *testing.T, policy string, dir string) []string {
	t.Helper()
	cfg := testConfig(identityDIMMs)
	var err error
	if cfg.Policy, err = ParsePolicy(policy); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.ReplaceAll(policy, ":", "-")+".ckpt")
	sum := mustRun(t, cfg, Options{Seed: 7, Workers: 2, CheckpointPath: path})
	js, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := "policy=" + policy
	lines := []string{fmt.Sprintf("%s\tsummary=%s\tedac=%s\tcheckpoint=%s",
		key, sha(js), sha(NewEDACSnapshot(&cfg, sum.MCs).Dump()), sha(ckpt))}
	for _, from := range identityHistoryFrom {
		for d := from; ; d++ {
			if d == cfg.DIMMs {
				t.Fatalf("no faulty DIMM at or after %d", from)
			}
			h, err := History(cfg, Options{Seed: 7}, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Records) == 0 {
				continue
			}
			hj, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s/dimm=%d\t%s", key, d, hj))
			break
		}
	}
	return lines
}

// TestIdentityGolden pins what a fleet run leaves behind for each
// retirement policy: its Summary, EDAC dump and checkpoint bytes, and the
// replayed histories of three faulty DIMMs. Regenerate with
//
//	go test ./internal/fleet -run TestIdentityGolden -update
//
// and review the diff: a change that claims the same results must leave
// the file as it is.
func TestIdentityGolden(t *testing.T) {
	policies := []string{"none", "on-first-ce", "threshold:3", "harp"}
	if testing.Short() && !*update {
		policies = []string{"none", "harp"}
	}
	dir := t.TempDir()
	var got []string
	for _, p := range policies {
		got = append(got, identityLines(t, p, dir)...)
	}
	if *update {
		if err := os.WriteFile(identityGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), identityGoldenFile)
		return
	}
	b, err := os.ReadFile(identityGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		want[key] = line
	}
	for _, line := range got {
		key, _, _ := strings.Cut(line, "\t")
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: missing from %s (rerun with -update)", key, identityGoldenFile)
		case w != line:
			t.Errorf("fleet identity changed:\n got %s\nwant %s", line, w)
		}
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("%s holds %d lines, the matrix has %d", identityGoldenFile, len(want), len(got))
	}
}
