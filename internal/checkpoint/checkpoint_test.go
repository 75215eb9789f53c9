package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Label  string   `json:"label"`
	Counts []uint64 `json:"counts"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	hash, err := Hash(map[string]int{"trials": 100})
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Label: "xed", Counts: []uint64{1, 2, 3}}
	if err := Save(path, "test-kind", 2, hash, &in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test-kind", 2, hash, &out); err != nil {
		t.Fatal(err)
	}
	if out.Label != in.Label || len(out.Counts) != 3 || out.Counts[2] != 3 {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	for i := 0; i < 3; i++ {
		in := payload{Label: "v", Counts: []uint64{uint64(i)}}
		if err := Save(path, "k", 1, "h", &in); err != nil {
			t.Fatal(err)
		}
	}
	var out payload
	if err := Load(path, "k", 1, "h", &out); err != nil {
		t.Fatal(err)
	}
	if out.Counts[0] != 2 {
		t.Fatalf("latest save not visible: %+v", out)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stale temp file %s", e.Name())
		}
	}
}

// noTempFiles fails the test if dir holds any leftover *.tmp* file — the
// contract that every Save error path cleans up after itself.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stale temp file %s", e.Name())
		}
	}
}

func TestSaveErrorPathsLeaveNoTempFile(t *testing.T) {
	t.Run("unencodable payload", func(t *testing.T) {
		dir := t.TempDir()
		err := Save(filepath.Join(dir, "snap.json"), "k", 1, "h", make(chan int))
		if err == nil {
			t.Fatal("Save of an unencodable payload succeeded")
		}
		noTempFiles(t, dir)
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("failed Save created files: %v", entries)
		}
	})
	t.Run("missing directory", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "no", "such", "dir", "snap.json")
		if err := Save(path, "k", 1, "h", &payload{}); err == nil {
			t.Fatal("Save into a missing directory succeeded")
		}
	})
	t.Run("rename onto directory", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.json")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		// Make the rename fail reliably: a non-empty directory cannot be
		// replaced by a file on any platform.
		if err := os.WriteFile(filepath.Join(path, "occupant"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Save(path, "k", 1, "h", &payload{}); err == nil {
			t.Fatal("Save onto a directory succeeded")
		}
		noTempFiles(t, dir)
	})
}

// TestSaveSyncsDirectory exercises the post-rename directory fsync path
// (the durability fix): a successful Save must open and sync the parent
// directory without error and still leave exactly the snapshot behind.
func TestSaveSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := Save(path, "k", 1, "h", &payload{Label: "durable"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "k", 1, "h", &out); err != nil {
		t.Fatal(err)
	}
	if out.Label != "durable" {
		t.Fatalf("payload = %+v", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.json" {
		t.Fatalf("directory contents after Save: %v", entries)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var out payload
	err := Load(filepath.Join(t.TempDir(), "absent.json"), "k", 1, "h", &out)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := Save(path, "kind-a", 3, "hash-a", &payload{}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "kind-b", 3, "hash-a", &out); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("kind: err = %v", err)
	}
	if err := Load(path, "kind-a", 4, "hash-a", &out); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version: err = %v", err)
	}
	if err := Load(path, "kind-a", 3, "hash-b", &out); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("hash: err = %v", err)
	}
}

// TestSaveSweepsStaleTemps pins the crash-orphan cleanup: the temp file
// left by a save that died before its rename is replaced and renamed away
// by the next Save to the same path, while unrelated files survive.
func TestSaveSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	// The orphan is longer than the fresh snapshot, so a Save that did not
	// truncate it would leave trailing garbage.
	if err := os.WriteFile(path+".tmp", []byte(strings.Repeat("orphan ", 200)), 0o644); err != nil {
		t.Fatal(err)
	}
	bystander := filepath.Join(dir, "other.json.tmp")
	if err := os.WriteFile(bystander, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "k", 1, "h", &payload{Label: "fresh"}); err != nil {
		t.Fatal(err)
	}
	noTempFilesFor(t, dir, "snap.json")
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("Save removed another checkpoint's temp file: %v", err)
	}
	var out payload
	if err := Load(path, "k", 1, "h", &out); err != nil || out.Label != "fresh" {
		t.Fatalf("Load after the orphan was replaced: %+v, %v", out, err)
	}
}

// noTempFilesFor fails if dir holds any leftover temp for the given base.
func noTempFilesFor(t *testing.T, dir, base string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base+".tmp") {
			t.Fatalf("stale temp file %s", e.Name())
		}
	}
}

// TestLoadRejectsCorruption pins the corruption paths a crashing writer (or
// a torn copy) can produce: empty, truncated and trailing-garbage envelope
// files must surface ErrNotCheckpoint — never a panic, never a zero-value
// payload mistaken for real state.
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := Save(good, "k", 1, "h", &payload{Label: "x", Counts: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	env, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated half", env[:len(env)/2]},
		{"truncated one byte", env[:len(env)-1]},
		{"trailing garbage", append(append([]byte(nil), env...), "garbage"...)},
		{"binary junk", []byte{0x00, 0xff, 0x13, 0x37}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "corrupt")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var out payload
			if err := Load(p, "k", 1, "h", &out); !errors.Is(err, ErrNotCheckpoint) {
				t.Fatalf("err = %v, want ErrNotCheckpoint", err)
			}
		})
	}
}

// TestMarshalMatchesSave pins that Marshal produces exactly the bytes Save
// writes — the distributed coordinator serves Marshal output over HTTP and
// clients compare it byte-for-byte against locally saved snapshots.
func TestMarshalMatchesSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	in := payload{Label: "wire", Counts: []uint64{7, 8}}
	if err := Save(path, "kind", 3, "hash", &in); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Marshal("kind", 3, "hash", &in)
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) != string(wire) {
		t.Fatalf("Marshal bytes differ from Save bytes:\n%s\nvs\n%s", wire, disk)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	var out payload

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(junk, "k", 1, "h", &out); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("junk: err = %v", err)
	}

	// Valid JSON, wrong magic.
	impostor := filepath.Join(dir, "impostor")
	if err := os.WriteFile(impostor, []byte(`{"magic":"something-else","kind":"k","version":1,"config_hash":"h","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(impostor, "k", 1, "h", &out); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("impostor: err = %v", err)
	}
}

func TestHashIsStableAndDiscriminating(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1, err := Hash(cfg{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := Hash(cfg{1, "x"})
	h3, _ := Hash(cfg{2, "x"})
	if h1 != h2 {
		t.Fatal("hash of equal values differs")
	}
	if h1 == h3 {
		t.Fatal("hash of different values collides")
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}
}
