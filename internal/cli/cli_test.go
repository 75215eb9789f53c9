package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xedsim/internal/obs"
)

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{" XED , Chipkill ,,", []string{"XED", "Chipkill"}},
		{"ECC-DIMM (SECDED),XED", []string{"ECC-DIMM (SECDED)", "XED"}},
		{"", nil},
		{" , ", nil},
	} {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestInterrupted(t *testing.T) {
	if got, want := Interrupted("partial results", "").Error(), "interrupted; partial results above"; got != want {
		t.Errorf("without a path: %q, want %q", got, want)
	}
	if got, want := Interrupted("partial summary", "f.ckpt").Error(), "interrupted; partial summary above, progress saved to f.ckpt"; got != want {
		t.Errorf("with a path: %q, want %q", got, want)
	}
}

// TestProgress pins the repaint rules: at most one paint per 100 ms, the
// final state always painted, a shorter line blanking the tail of a longer
// one, and Finish ending the line only once something was painted.
func TestProgress(t *testing.T) {
	var out strings.Builder
	lines := map[int]string{1: "step one", 2: "step two", 3: "done"}
	p := NewProgress(&out, func(done, total int) string { return lines[done] })
	p.Finish()
	if out.Len() != 0 {
		t.Fatalf("Finish before any paint wrote %q", out.String())
	}

	p.Update(1, 3)
	p.last = time.Now().Add(time.Hour) // the next call falls inside the window
	p.Update(2, 3)
	if got, want := out.String(), "\rstep one"; got != want {
		t.Fatalf("after a throttled repaint: %q, want %q", got, want)
	}
	p.Update(3, 3) // final state, also inside the window
	p.Finish()
	if got, want := out.String(), "\rstep one\rdone    \n"; got != want {
		t.Fatalf("final paint: %q, want %q", got, want)
	}

	p.last = time.Now().Add(-time.Second)
	out.Reset()
	p.Update(2, 3)
	if got, want := out.String(), "\rstep two"; got != want {
		t.Fatalf("repaint after the window: %q, want %q", got, want)
	}

	var nilProgress *Progress
	nilProgress.Finish()
}

func TestObserve(t *testing.T) {
	const c Command = "test"
	reg, done := c.Observe(false, "", "", nil)
	done()
	if reg != nil {
		t.Fatal("registry made with every observability flag unset")
	}
	reg, done = c.Observe(true, "", "", nil)
	done()
	if reg == nil {
		t.Fatal("-progress got no registry")
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	reg, done = c.Observe(false, path, "", nil)
	reg.Counter("test.count").Add(3)
	done()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["test.count"]; got != 3 || !strings.HasSuffix(string(b), "}\n") {
		t.Fatalf("snapshot holds test.count %d (want 3) in %q", got, b)
	}
}
