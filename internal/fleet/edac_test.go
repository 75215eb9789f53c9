package fleet

import (
	"bytes"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() *EDACSnapshot {
	return &EDACSnapshot{MCs: []MCRecord{
		{Name: "xedsim XED", SizeMB: 32768, SecondsSinceReset: 220903200,
			Counters: MCCounters{CE: 12, CENoInfo: 3, UE: 1, UENoInfo: 0}},
		{Name: "xedsim XED", SizeMB: 32768, SecondsSinceReset: 220903200,
			Counters: MCCounters{CE: 0, CENoInfo: 0, UE: 0, UENoInfo: 2}},
	}}
}

func TestEDACDumpRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := ParseEDACDump(want.Dump())
	if err != nil {
		t.Fatalf("ParseEDACDump(Dump()): %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestEDACDumpShape(t *testing.T) {
	dump := string(sampleSnapshot().Dump())
	if !strings.HasPrefix(dump, "/sys/devices/system/edac/mc/mc0/mc_name ") {
		t.Errorf("dump does not start with mc0 mc_name:\n%s", dump)
	}
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	if len(lines) != 2*len(edacAttrs) {
		t.Errorf("dump has %d lines, want %d", len(lines), 2*len(edacAttrs))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, edacPrefix) {
			t.Errorf("line lacks sysfs prefix: %q", ln)
		}
	}
}

func TestParseEDACDumpAcceptsAnyLineOrder(t *testing.T) {
	want := sampleSnapshot()
	lines := strings.Split(strings.TrimSuffix(string(want.Dump()), "\n"), "\n")
	// Reverse: mc1 before mc0, counters before names.
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	got, err := ParseEDACDump([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatalf("ParseEDACDump(reversed): %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("reversed-order parse mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestParseEDACDumpEmpty(t *testing.T) {
	got, err := ParseEDACDump(nil)
	if err != nil || len(got.MCs) != 0 {
		t.Errorf("ParseEDACDump(nil) = %+v, %v; want empty snapshot", got, err)
	}
}

func TestParseEDACDumpRejects(t *testing.T) {
	valid := string(sampleSnapshot().Dump())
	cases := map[string]string{
		"bad prefix":         "/sys/devices/system/edac/mc/zz0/ce_count 1\n",
		"relative path":      "mc0/ce_count 1\n",
		"negative index":     edacPrefix + "-1/ce_count 1\n",
		"non-numeric index":  edacPrefix + "x/ce_count 1\n",
		"missing attr path":  edacPrefix + "0 1\n",
		"missing value":      edacPrefix + "0/ce_count\n",
		"unknown attribute":  edacPrefix + "0/ce_total 1\n",
		"non-uint64 counter": edacPrefix + "0/ce_count -3\n",
		"float counter":      edacPrefix + "0/ce_count 1.5\n",
		"duplicate attr":     valid + edacPrefix + "0/ce_count 9\n",
		"missing attr":       strings.Replace(valid, edacPrefix+"1/ue_count 0\n", "", 1),
		"non-dense indices":  strings.ReplaceAll(valid, "/mc1/", "/mc3/"),
	}
	for name, dump := range cases {
		if _, err := ParseEDACDump([]byte(dump)); err == nil {
			t.Errorf("%s: ParseEDACDump accepted:\n%s", name, dump)
		}
	}
}

// TestEDACRoundTripAllocs pins the round trip's allocations on a snapshot
// the size of the fleet-harp benchmark's (123 controllers): Dump sizes its
// buffer exactly and allocates once, and ParseEDACDump allocates only the
// records, their attribute masks, the name the controllers share and the
// snapshot — nothing per line or per controller.
func TestEDACRoundTripAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DIMMsPerMC = 65536
	cfg.DIMMs = 123 * cfg.DIMMsPerMC
	mcs := make([]MCCounters, cfg.MCs())
	for i := range mcs {
		mcs[i] = MCCounters{CE: uint64(i) * 977, CENoInfo: uint64(i), UE: uint64(i % 3), UENoInfo: 1 << 40}
	}
	snap := NewEDACSnapshot(&cfg, mcs)
	dump := snap.Dump()
	if len(dump) != cap(dump) {
		t.Errorf("Dump reserved %d bytes for a %d-byte dump", cap(dump), len(dump))
	}
	if n := testing.AllocsPerRun(20, func() { snap.Dump() }); n != 1 {
		t.Errorf("Dump allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { ParseEDACDump(dump) }); n > 4 {
		t.Errorf("ParseEDACDump allocates %v times for %d controllers, want at most 4", n, len(mcs))
	}
}

func TestNewEDACSnapshotPartialLastMC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DIMMs = 11 // 8 + 3: the second controller hosts only 3 DIMMs
	cfg.DIMMsPerMC = 8
	cfg.DIMMSizeMB = 4096
	snap := NewEDACSnapshot(&cfg, make([]MCCounters, cfg.MCs()))
	if len(snap.MCs) != 2 {
		t.Fatalf("len(MCs) = %d, want 2", len(snap.MCs))
	}
	if got, want := snap.MCs[0].SizeMB, uint64(8*4096); got != want {
		t.Errorf("mc0 size_mb = %d, want %d", got, want)
	}
	if got, want := snap.MCs[1].SizeMB, uint64(3*4096); got != want {
		t.Errorf("mc1 size_mb = %d, want %d", got, want)
	}
	if got, want := snap.MCs[0].SecondsSinceReset, uint64(cfg.HorizonHours*3600); got != want {
		t.Errorf("seconds_since_reset = %d, want %d", got, want)
	}
	if snap.MCs[0].Name != "xedsim XED" {
		t.Errorf("mc_name = %q, want \"xedsim XED\"", snap.MCs[0].Name)
	}
}

func TestViewHandler(t *testing.T) {
	v := NewView()
	req := httptest.NewRequest("GET", "/edac", nil)

	rec := httptest.NewRecorder()
	v.Handler().ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Errorf("unbound view answered %d, want 503", rec.Code)
	}
	if v.Snapshot() != nil {
		t.Errorf("unbound view returned a snapshot")
	}

	want := sampleSnapshot()
	v.bind(func() *EDACSnapshot { return want })
	rec = httptest.NewRecorder()
	v.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("bound view answered %d, want 200", rec.Code)
	}
	body, _ := io.ReadAll(rec.Result().Body)
	if !bytes.Equal(body, want.Dump()) {
		t.Errorf("view body is not the dump:\n%s", body)
	}
	got, err := ParseEDACDump(body)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Errorf("view body does not round-trip: %v", err)
	}
}

// TestRunBindsView: a live run serves real counters through the view.
func TestRunBindsView(t *testing.T) {
	v := NewView()
	cfg := testConfig(4_000)
	sum := mustRun(t, cfg, Options{Seed: 8, View: v})
	snap := v.Snapshot()
	if snap == nil {
		t.Fatal("view unbound after run")
	}
	want := NewEDACSnapshot(&cfg, sum.MCs)
	if !reflect.DeepEqual(want, snap) {
		t.Errorf("view snapshot does not match the run's final counters")
	}
}

// FuzzEDACDumpRoundTrip holds ParseEDACDump and Dump to an exact inverse
// pair: any dump the parser accepts must re-render byte-identically, and
// re-parse to the same snapshot. This is the contract that lets external
// EDAC consumers treat the /edac view like a real host's sysfs.
func FuzzEDACDumpRoundTrip(f *testing.F) {
	f.Add([]byte(sampleSnapshot().Dump()))
	cfg := DefaultConfig()
	cfg.DIMMs = 20
	f.Add([]byte(NewEDACSnapshot(&cfg, make([]MCCounters, cfg.MCs())).Dump()))
	f.Add([]byte(edacPrefix + "0/ce_count 1\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte(edacPrefix + "0/mc_name a name with spaces\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseEDACDump(data)
		if err != nil {
			return // rejected input: nothing to hold
		}
		dump := snap.Dump()
		again, err := ParseEDACDump(dump)
		if err != nil {
			t.Fatalf("re-parse of rendered dump failed: %v\ndump:\n%s", err, dump)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("round trip diverged:\nfirst  %+v\nsecond %+v", snap, again)
		}
		if !bytes.Equal(dump, again.Dump()) {
			t.Fatalf("second render differs from first:\n%s\nvs\n%s", dump, again.Dump())
		}
	})
}
