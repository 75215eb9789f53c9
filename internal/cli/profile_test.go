package cli

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestNoFlagsIsANoOp(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterProfile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// A little work so the CPU profile has something to sample.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

func TestStartFailsOnBadPath(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Fatal("expected error for uncreatable profile path")
	}
}
