package core

import (
	"testing"

	"xedsim/internal/dram"
)

// Allocation regression tests for the controller hot paths: after the
// scratch-buffer work every steady-state read — clean or correcting — must
// run without touching the heap. testing.AllocsPerRun averages over many
// runs, so one-time warm-up (read buffers, event ring growth) is done
// before measuring.

func TestXEDReadPathAllocFree(t *testing.T) {
	c := newXED(t)
	a := dram.WordAddr{Bank: 1, Row: 3, Col: 7}
	c.WriteLine(a, Line{1, 2, 3, 4, 5, 6, 7, 8})

	clean := func() {
		if res := c.ReadLine(a); res.Outcome != OutcomeClean {
			t.Fatalf("clean read: %v", res.Outcome)
		}
	}
	clean()
	if allocs := testing.AllocsPerRun(200, clean); allocs != 0 {
		t.Errorf("clean read path: %v allocs/op, want 0", allocs)
	}

	// Whole-chip failure: every read takes the §V-C single-erasure path
	// (catch-word + RAID-3 reconstruction).
	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 42))
	erasure := func() {
		res := c.ReadLine(a)
		if res.Outcome != OutcomeCorrectedErasure {
			t.Fatalf("erasure read: %v", res.Outcome)
		}
		if len(res.FaultyChips) != 1 || res.FaultyChips[0] != 3 {
			t.Fatalf("erasure read named chips %v", res.FaultyChips)
		}
	}
	erasure()
	if allocs := testing.AllocsPerRun(200, erasure); allocs != 0 {
		t.Errorf("single-erasure read path: %v allocs/op, want 0", allocs)
	}
}

func TestXEDChipkillReadPathAllocFree(t *testing.T) {
	c := newXEDChipkill(t)
	a := dram.WordAddr{Bank: 0, Row: 2, Col: 5}
	var data Block
	for i := range data {
		data[i] = uint64(i) * 0x0101010101010101
	}
	c.WriteBlock(a, data)

	clean := func() {
		if _, outcome := c.ReadBlock(a); outcome != OutcomeClean {
			t.Fatalf("clean read: %v", outcome)
		}
	}
	clean()
	if allocs := testing.AllocsPerRun(200, clean); allocs != 0 {
		t.Errorf("clean read path: %v allocs/op, want 0", allocs)
	}

	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 7))
	c.Rank().InjectChipFailure(9, dram.NewChipFault(false, 8))
	erasures := func() {
		got, outcome := c.ReadBlock(a)
		if outcome != OutcomeCorrectedErasure {
			t.Fatalf("erasure read: %v", outcome)
		}
		if got != data {
			t.Fatal("erasure read returned wrong data")
		}
	}
	erasures()
	if allocs := testing.AllocsPerRun(200, erasures); allocs != 0 {
		t.Errorf("two-erasure read path: %v allocs/op, want 0", allocs)
	}
}

func TestBaselineReadPathsAllocFree(t *testing.T) {
	t.Run("ECCDIMM", func(t *testing.T) {
		c := newECCDIMM(t)
		a := dram.WordAddr{Bank: 0, Row: 1, Col: 2}
		c.WriteLine(a, Line{9, 8, 7, 6, 5, 4, 3, 2})
		op := func() {
			if _, outcome := c.ReadLine(a); outcome != OutcomeClean {
				t.Fatalf("read: %v", outcome)
			}
		}
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%v allocs/op, want 0", allocs)
		}
	})
	t.Run("Chipkill", func(t *testing.T) {
		c := newPlainChipkill(t)
		a := dram.WordAddr{Bank: 0, Row: 1, Col: 2}
		c.WriteBlock(a, Block{1, 2, 3})
		c.Rank().InjectChipFailure(5, dram.NewChipFault(false, 11))
		op := func() {
			if _, outcome := c.ReadBlock(a); outcome != OutcomeCorrectedErasure {
				t.Fatalf("read: %v", outcome)
			}
		}
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%v allocs/op, want 0", allocs)
		}
	})
	t.Run("DoubleChipkill", func(t *testing.T) {
		c := newDoubleChipkill(t)
		a := dram.WordAddr{Bank: 0, Row: 1, Col: 2}
		c.WriteBlock(a, WideBlock{1, 2, 3})
		c.Rank().InjectChipFailure(7, dram.NewChipFault(false, 12))
		c.Rank().InjectChipFailure(20, dram.NewChipFault(false, 13))
		op := func() {
			if _, outcome := c.ReadBlock(a); outcome != OutcomeCorrectedErasure {
				t.Fatalf("read: %v", outcome)
			}
		}
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%v allocs/op, want 0", allocs)
		}
	})
}

// TestAlertNReadPathAllocFree: both ALERT_n variants read through the
// rank's scratch and return scratch-backed FaultyChips, clean or with a
// failed chip: the basic pin's full §VI diagnosis (the FCT is cleared
// before each read) and the extended pin's erasure.
func TestAlertNReadPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		extended bool
		failed   Outcome
	}{
		{"basic", false, OutcomeCorrectedDiagnosis},
		{"extended", true, OutcomeCorrectedErasure},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newAlertN(t, tc.extended)
			a := dram.WordAddr{Bank: 1, Row: 3, Col: 7}
			data := Line{1, 2, 3, 4, 5, 6, 7, 8}
			c.WriteLine(a, data)
			read := func(want Outcome) func() {
				return func() {
					res := c.ReadLine(a)
					if res.Outcome != want || res.Data != data {
						t.Fatalf("read: %v (data ok %v), want %v", res.Outcome, res.Data == data, want)
					}
				}
			}
			clean := read(OutcomeClean)
			clean()
			if allocs := testing.AllocsPerRun(200, clean); allocs != 0 {
				t.Errorf("clean read path: %v allocs/op, want 0", allocs)
			}
			c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 42))
			diagnosed := read(tc.failed)
			failed := func() {
				c.fct.Reset()
				diagnosed()
			}
			failed()
			if allocs := testing.AllocsPerRun(200, failed); allocs != 0 {
				t.Errorf("failed-chip read path: %v allocs/op, want 0", allocs)
			}
		})
	}
}

func TestWritePathsAllocFree(t *testing.T) {
	xed := newXED(t)
	alert := newAlertN(t, false)
	eccDIMM := newECCDIMM(t)
	ck := newPlainChipkill(t)
	dck := newDoubleChipkill(t)
	xck := newXEDChipkill(t)
	a := dram.WordAddr{Bank: 2, Row: 4, Col: 6}
	cases := []struct {
		name string
		op   func()
	}{
		{"XED", func() { xed.WriteLine(a, Line{1, 2, 3}) }},
		{"ALERT_n", func() { alert.WriteLine(a, Line{1, 2, 3}) }},
		{"ECCDIMM", func() { eccDIMM.WriteLine(a, Line{1, 2, 3}) }},
		{"Chipkill", func() { ck.WriteBlock(a, Block{4, 5, 6}) }},
		{"DoubleChipkill", func() { dck.WriteBlock(a, WideBlock{4, 5, 6}) }},
		{"XEDChipkill", func() { xck.WriteBlock(a, Block{4, 5, 6}) }},
	}
	for _, tc := range cases {
		tc.op()
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s write path: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
