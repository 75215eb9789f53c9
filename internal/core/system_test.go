package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

func smallFleet(t testing.TB, scaling float64) *MemorySystem {
	t.Helper()
	m, err := NewMemorySystem(MemorySystemConfig{
		Channels:         4,
		RanksPerChannel:  2,
		Geometry:         dram.Geometry{Banks: 2, RowsPerBank: 8, ColsPerRow: 128},
		ScalingFaultRate: scaling,
		Seed:             17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemorySystemCapacityAndString(t *testing.T) {
	m := smallFleet(t, 0)
	wantLines := uint64(4 * 2 * 2 * 8 * 128)
	if m.Capacity() != wantLines*64 {
		t.Fatalf("capacity %d, want %d", m.Capacity(), wantLines*64)
	}
	if s := m.String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestMemorySystemRoundTripAcrossFleet(t *testing.T) {
	m := smallFleet(t, 0)
	rng := simrand.New(70)
	lines := map[uint64]Line{}
	for i := 0; i < 500; i++ {
		phys := (rng.Uint64() % (m.Capacity() / 64)) << 6
		l := lineOf(rng)
		lines[phys] = l
		m.Write(phys, l)
	}
	for phys, want := range lines {
		res := m.Read(phys)
		if res.Outcome != OutcomeClean || res.Data != want {
			t.Fatalf("addr %#x: %+v", phys, res)
		}
	}
	st := m.TotalStats()
	if st.Writes != 500 || st.Reads != uint64(len(lines)) {
		t.Fatalf("fleet stats: %+v", st)
	}
}

func TestMemorySystemChipFailureScopedToRank(t *testing.T) {
	m := smallFleet(t, 0)
	rng := simrand.New(71)
	// Fill a sample of lines everywhere.
	var addrs []uint64
	lines := map[uint64]Line{}
	for i := 0; i < 400; i++ {
		phys := (rng.Uint64() % (m.Capacity() / 64)) << 6
		l := lineOf(rng)
		addrs = append(addrs, phys)
		lines[phys] = l
		m.Write(phys, l)
	}
	m.InjectChipFailure(2, 1, 5, dram.NewChipFault(false, 3))
	for _, phys := range addrs {
		res := m.Read(phys)
		if res.Data != lines[phys] {
			t.Fatalf("addr %#x corrupted: %+v", phys, res)
		}
		loc := m.Mapper().Decompose(phys)
		wantErasure := loc.Channel == 2 && loc.Rank == 1
		if wantErasure && res.Outcome == OutcomeClean {
			t.Fatalf("addr %#x in failed rank read clean", phys)
		}
		if !wantErasure && res.Outcome != OutcomeClean {
			t.Fatalf("addr %#x outside failed rank: %v", phys, res.Outcome)
		}
	}
}

func newMapper(t *testing.T, channels, ranks int, geom dram.Geometry) *dram.AddressMapper {
	t.Helper()
	m, err := dram.NewMapper(channels, ranks, geom)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAddressMapperInverse: Decompose is a bijection from the fleet's
// lines onto its locations, so it has an inverse.
func TestAddressMapperInverse(t *testing.T) {
	m := newMapper(t, 4, 2, dram.Geometry{Banks: 8, RowsPerBank: 16, ColsPerRow: 32})
	seen := make(map[dram.Location]bool, m.Lines())
	for line := uint64(0); line < m.Lines(); line++ {
		loc := m.Decompose(line << 6)
		if seen[loc] {
			t.Fatalf("line %d maps to %+v, which an earlier line already holds", line, loc)
		}
		seen[loc] = true
	}
}

func TestAddressMapperChannelInterleave(t *testing.T) {
	// Consecutive cache lines land on consecutive channels — the
	// stream-friendly interleave of the Table V system.
	m := newMapper(t, 4, 2, dram.Geometry{Banks: 8, RowsPerBank: 64, ColsPerRow: 128})
	for i := uint64(0); i < 16; i++ {
		loc := m.Decompose(i << 6)
		if loc.Channel != int(i%4) {
			t.Fatalf("line %d on channel %d, want %d", i, loc.Channel, i%4)
		}
	}
}

func TestAddressMapperCoversAllBanksAndRanks(t *testing.T) {
	m := newMapper(t, 2, 2, dram.Geometry{Banks: 4, RowsPerBank: 8, ColsPerRow: 4})
	seen := map[[4]int]bool{}
	for line := uint64(0); line < m.Lines(); line++ {
		loc := m.Decompose(line << 6)
		key := [4]int{loc.Channel, loc.Rank, loc.Addr.Bank, loc.Addr.Row}
		seen[key] = true
		if !m.Geom.Contains(loc.Addr) {
			t.Fatalf("line %d decomposed outside geometry: %+v", line, loc)
		}
	}
	want := 2 * 2 * 4 * 8
	if len(seen) != want {
		t.Fatalf("address map reaches %d (ch,rank,bank,row) tuples, want %d", len(seen), want)
	}
}

func TestAddressMapperBounds(t *testing.T) {
	m := newMapper(t, 2, 1, dram.Geometry{Banks: 2, RowsPerBank: 2, ColsPerRow: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond capacity")
		}
	}()
	m.Decompose(m.Bytes())
}

func TestScrubberHealsTransientFaults(t *testing.T) {
	ctrl := newXED(t)
	rng := simrand.New(72)
	geom := ctrl.Rank().Geometry()

	a := dram.WordAddr{Bank: 1, Row: 4, Col: 9}
	data := lineOf(rng)
	ctrl.WriteLine(a, data)
	// A transient row fault: many lines of the row damaged until
	// rewritten.
	ctrl.Rank().Chip(2).InjectFault(dram.NewRowFault(1, 4, true, 5))

	n := ctrl.scrub()
	if n.corrections == 0 {
		t.Fatal("scrub pass corrected nothing")
	}
	if n.lines != uint64(geom.Banks*geom.RowsPerBank*geom.ColsPerRow) {
		t.Fatalf("scrubbed %d lines", n.lines)
	}
	if n.passes != 1 {
		t.Fatalf("passes = %d", n.passes)
	}
	// After scrubbing, the transient damage is healed: clean read, and
	// the chip-level fault no longer corrupts (rewritten epoch).
	res := ctrl.ReadLine(a)
	if res.Outcome != OutcomeClean || res.Data != data {
		t.Fatalf("post-scrub read: %+v (data ok=%v)", res.Outcome, res.Data == data)
	}
}

func TestScrubberLeavesPermanentFaultsCorrectable(t *testing.T) {
	ctrl := newXED(t)
	rng := simrand.New(73)
	a := dram.WordAddr{Bank: 0, Row: 2, Col: 3}
	data := lineOf(rng)
	ctrl.WriteLine(a, data)
	ctrl.Rank().Chip(4).InjectFault(dram.NewChipFault(false, 6))
	ctrl.scrub()
	// Permanent damage persists, but reads stay correct via erasure.
	res := ctrl.ReadLine(a)
	if res.Data != data {
		t.Fatalf("post-scrub read wrong: %+v", res)
	}
}

func TestScrubberReportsDUEs(t *testing.T) {
	ctrl := newXED(t)
	rng := simrand.New(74)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	ctrl.WriteLine(a, lineOf(rng))
	ctrl.Rank().Chip(1).InjectFault(silentWordFault(a, true))
	if n := ctrl.scrub(); n.dues != 1 {
		t.Fatalf("scrub dues = %d, want 1", n.dues)
	}
}

func TestMemorySystemScrubAll(t *testing.T) {
	m := smallFleet(t, 0.002)
	rng := simrand.New(75)
	for i := 0; i < 100; i++ {
		phys := (rng.Uint64() % (m.Capacity() / 64)) << 6
		m.Write(phys, lineOf(rng))
	}
	if dues := m.ScrubAll(); dues != 0 {
		t.Fatalf("scaling faults alone caused %d scrub DUEs", dues)
	}
}

// TestMemorySystemAddMetrics: AddMetrics writes exactly TotalStats under
// the core.* names, and the ScrubAll totals under core.scrub.* once a pass
// has run.
func TestMemorySystemAddMetrics(t *testing.T) {
	m := smallFleet(t, 0.002)
	rng := simrand.New(76)
	for i := 0; i < 200; i++ {
		phys := (rng.Uint64() % (m.Capacity() / 64)) << 6
		m.Write(phys, lineOf(rng))
		m.Read(phys)
	}
	m.InjectChipFailure(1, 0, 3, dram.NewChipFault(false, 9))
	for phys := uint64(0); phys < 64*64; phys += 64 {
		m.Read(phys)
	}
	want := func() map[string]uint64 {
		s := m.TotalStats()
		return map[string]uint64{
			"core.reads":                 s.Reads,
			"core.writes":                s.Writes,
			"core.reads_clean":           s.CleanReads,
			"core.catchwords_seen":       s.CatchWordsSeen,
			"core.corrections_erasure":   s.ErasureCorrections,
			"core.corrections_serial":    s.SerialCorrections,
			"core.corrections_diagnosis": s.DiagCorrections,
			"core.dues":                  s.DUEs,
			"core.collisions":            s.Collisions,
			"core.catchword_updates":     s.CatchWordUpdates,
			"core.diag_interline_runs":   s.InterLineRuns,
			"core.diag_intraline_runs":   s.IntraLineRuns,
			"core.fct_chip_marks":        s.FCTChipMarks,
		}
	}
	check := func(want map[string]uint64) {
		t.Helper()
		reg := obs.NewRegistry()
		m.AddMetrics(reg)
		got := reg.Snapshot().Counters
		if len(got) != len(want) {
			t.Fatalf("AddMetrics wrote %d counters, want %d: %v", len(got), len(want), got)
		}
		for name, n := range want {
			if v, ok := got[name]; !ok || v != n {
				t.Errorf("%s = %d (present %v), want %d", name, v, ok, n)
			}
		}
	}

	stats := want()
	if stats["core.corrections_erasure"] == 0 || stats["core.reads_clean"] == 0 {
		t.Fatalf("fleet exercised too little: %v", stats)
	}
	check(stats)

	// Every scrubbed line is one read, and every correction one
	// write-back.
	before := m.TotalStats()
	dues := m.ScrubAll()
	dues += m.ScrubAll()
	after := m.TotalStats()
	stats = want()
	stats["core.scrub.lines"] = after.Reads - before.Reads
	stats["core.scrub.corrections"] = after.Writes - before.Writes
	stats["core.scrub.dues"] = uint64(dues)
	stats["core.scrub.passes"] = 2 * 8
	if stats["core.scrub.lines"] != 2*m.Capacity()/64 || stats["core.scrub.corrections"] == 0 {
		t.Fatalf("two scrub passes read %d lines and corrected %d", stats["core.scrub.lines"], stats["core.scrub.corrections"])
	}
	check(stats)
}
