package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

func newAlertN(t testing.TB, extended bool) *AlertNController {
	t.Helper()
	rank := dram.MustNewRank(9, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	return NewAlertNController(rank, extended)
}

func TestAlertNCleanRoundTrip(t *testing.T) {
	for _, extended := range []bool{false, true} {
		c := newAlertN(t, extended)
		rng := simrand.New(60)
		a := dram.WordAddr{Bank: 0, Row: 1, Col: 2}
		data := lineOf(rng)
		c.WriteLine(a, data)
		res := c.ReadLine(a)
		if res.Outcome != OutcomeClean || res.Data != data || res.AlertAsserted {
			t.Fatalf("extended=%v: %+v", extended, res)
		}
	}
}

func TestAlertNOnDieCorrectionAssertsPin(t *testing.T) {
	// A single-bit fault is corrected on-die; the data bus shows clean
	// data but the pin pulses — the controller learns an error happened
	// without any bandwidth cost, which is the pin's entire purpose.
	c := newAlertN(t, false)
	rng := simrand.New(61)
	a := dram.WordAddr{Bank: 1, Row: 2, Col: 3}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().Chip(2).InjectFault(dram.NewBitFault(a, 9, false))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeClean || res.Data != data {
		t.Fatalf("corrected read wrong: %+v", res)
	}
	if !res.AlertAsserted {
		t.Fatal("ALERT_n should assert on on-die correction")
	}
}

func TestBasicAlertNChipFailureNeedsDiagnosis(t *testing.T) {
	// §XI-C: the shared pin cannot identify the chip, so a chip failure
	// costs a full diagnosis before parity can reconstruct — against
	// XED's immediate catch-word erasure.
	c := newAlertN(t, false)
	rng := simrand.New(62)
	a := dram.WordAddr{Bank: 0, Row: 7, Col: 11}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().InjectChipFailure(4, dram.NewChipFault(false, 5))
	res := c.ReadLine(a)
	if res.Data != data {
		t.Fatalf("basic ALERT_n failed to recover: %+v", res)
	}
	if res.Outcome != OutcomeCorrectedDiagnosis {
		t.Fatalf("outcome %v, want corrected-diagnosis", res.Outcome)
	}
	if c.Stats().InterLineRuns == 0 {
		t.Fatal("expected an inter-line diagnosis run")
	}
}

func TestExtendedAlertNChipFailureIsImmediateErasure(t *testing.T) {
	// The paper's proposed extension: the pin conveys the chip identity
	// — equivalent to XED without catch-words or collision risk.
	c := newAlertN(t, true)
	rng := simrand.New(63)
	a := dram.WordAddr{Bank: 2, Row: 9, Col: 4}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().InjectChipFailure(6, dram.NewChipFault(false, 8))
	res := c.ReadLine(a)
	if res.Data != data || res.Outcome != OutcomeCorrectedErasure {
		t.Fatalf("extended ALERT_n: %+v", res)
	}
	if len(res.FaultyChips) != 1 || res.FaultyChips[0] != 6 {
		t.Fatalf("blamed %v", res.FaultyChips)
	}
	if c.Stats().InterLineRuns != 0 {
		t.Fatal("extended variant should not need diagnosis")
	}
}

func TestExtendedAlertNTwoChipFailuresDUE(t *testing.T) {
	c := newAlertN(t, true)
	rng := simrand.New(64)
	a := dram.WordAddr{Bank: 0, Row: 3, Col: 5}
	c.WriteLine(a, lineOf(rng))
	c.Rank().InjectChipFailure(1, dram.NewChipFault(false, 2))
	c.Rank().InjectChipFailure(5, dram.NewChipFault(false, 3))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeDUE {
		t.Fatalf("outcome %v, want DUE (two erasures exceed one parity)", res.Outcome)
	}
}

func TestExtendedAlertNParityChipFailure(t *testing.T) {
	c := newAlertN(t, true)
	rng := simrand.New(65)
	a := dram.WordAddr{Bank: 3, Row: 1, Col: 0}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().InjectChipFailure(8, dram.NewChipFault(false, 4))
	res := c.ReadLine(a)
	// The data chips are intact and the pin names the parity chip: it is
	// erased, and the data beats stand as read, with no row scan.
	if res.Data != data || res.Outcome != OutcomeCorrectedErasure {
		t.Fatalf("parity-chip failure: %v (dataOK=%v), want corrected-erasure", res.Outcome, res.Data == data)
	}
	if len(res.FaultyChips) != 1 || res.FaultyChips[0] != 8 {
		t.Fatalf("blamed %v, want [8]", res.FaultyChips)
	}
	if c.Stats().InterLineRuns != 0 {
		t.Fatal("the pin named the parity chip, yet the read ran an inter-line scan")
	}
}

// TestExtendedAlertNDataAndParityChipFailureDUE: a dead data chip and a
// dead parity chip both assert. Rebuilding the data chip from the parity
// chip's garbage would return wrong data, so two asserting chips are a
// DUE, the parity chip among them.
func TestExtendedAlertNDataAndParityChipFailureDUE(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		c := newAlertN(t, true)
		rng := simrand.New(seed)
		a := dram.WordAddr{Bank: 2, Row: 5, Col: 11}
		data := lineOf(rng)
		c.WriteLine(a, data)
		c.Rank().InjectChipFailure(3, dram.NewChipFault(false, seed))
		c.Rank().InjectChipFailure(8, dram.NewChipFault(false, seed+1000))
		if res := c.ReadLine(a); res.Outcome != OutcomeDUE {
			t.Fatalf("seed %d: chips 3 and 8 dead: %v (dataOK=%v), want DUE", seed, res.Outcome, res.Data == data)
		}
	}
}

func TestBasicAlertNSilentTransientIsDUE(t *testing.T) {
	c := newAlertN(t, false)
	rng := simrand.New(66)
	a := dram.WordAddr{Bank: 1, Row: 12, Col: 7}
	c.WriteLine(a, lineOf(rng))
	c.Rank().Chip(3).InjectFault(silentWordFault(a, true))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeDUE {
		t.Fatalf("outcome %v, want DUE", res.Outcome)
	}
	if res.AlertAsserted {
		t.Fatal("a silent fault must not assert the pin")
	}
}

func TestAlertNNeedsNineChips(t *testing.T) {
	rank := dram.MustNewRank(8, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAlertNController(rank, false)
}

func BenchmarkAlertNBasicChipFailure(b *testing.B) {
	c := newAlertN(b, false)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteLine(a, Line{1, 2, 3, 4, 5, 6, 7, 8})
	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadLine(a)
	}
}

func BenchmarkAlertNExtendedChipFailure(b *testing.B) {
	c := newAlertN(b, true)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteLine(a, Line{1, 2, 3, 4, 5, 6, 7, 8})
	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadLine(a)
	}
}
