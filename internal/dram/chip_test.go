package dram

import (
	"testing"
	"testing/quick"

	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

func testGeom() Geometry { return Geometry{Banks: 4, RowsPerBank: 64, ColsPerRow: 16} }

func newTestChip() *Chip { return NewChip(testGeom(), ecc.NewCRC8ATM()) }

func TestChipReadBackProperty(t *testing.T) {
	c := newTestChip()
	f := func(bank, row, col uint8, data uint64) bool {
		a := WordAddr{Bank: int(bank) % 4, Row: int(row) % 64, Col: int(col) % 16}
		c.Write(a, data)
		r := c.Read(a)
		return r.Data == data && !r.IsCatchWord && r.Status == ecc.StatusOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipUnwrittenReadsZero(t *testing.T) {
	c := newTestChip()
	r := c.Read(WordAddr{Bank: 1, Row: 2, Col: 3})
	if r.Data != 0 || r.Status != ecc.StatusOK {
		t.Fatalf("unwritten read = %+v", r)
	}
}

func TestChipOnDieCorrectsSingleBit(t *testing.T) {
	// Conventional mode: a single-bit fault is corrected invisibly.
	c := newTestChip()
	a := WordAddr{Bank: 0, Row: 5, Col: 7}
	c.Write(a, 0xdeadbeef)
	c.InjectFault(NewBitFault(a, 13, false))
	r := c.Read(a)
	if r.Data != 0xdeadbeef || r.IsCatchWord || r.Status != ecc.StatusCorrected {
		t.Fatalf("read = %+v, want data corrected on-die", r)
	}
}

func TestChipXEDSendsCatchWordOnCorrection(t *testing.T) {
	// §V-A: with XED enabled the DC-Mux substitutes the catch-word even
	// for *corrected* errors.
	c := newTestChip()
	c.SetXEDEnable(true)
	c.SetCatchWord(0x5ca1ab1e0ddba11)
	a := WordAddr{Bank: 2, Row: 9, Col: 1}
	c.Write(a, 42)
	c.InjectFault(NewBitFault(a, 70, false)) // check-bit fault
	r := c.Read(a)
	if !r.IsCatchWord || r.Data != 0x5ca1ab1e0ddba11 || r.Status != ecc.StatusCorrected {
		t.Fatalf("read = %+v, want catch-word for a corrected error", r)
	}
}

func TestChipXEDSendsCatchWordOnDetection(t *testing.T) {
	c := newTestChip()
	c.SetXEDEnable(true)
	c.SetCatchWord(0xcafe)
	a := WordAddr{Bank: 0, Row: 0, Col: 0}
	c.Write(a, 7)
	c.InjectFault(NewWordFault(a, 0b11, 0, false)) // 2-bit: detect-only
	r := c.Read(a)
	if !r.IsCatchWord {
		t.Fatalf("read = %+v, want catch-word", r)
	}
	if r.Status != ecc.StatusDetected {
		t.Fatalf("status = %v, want detected", r.Status)
	}
}

func TestChipConventionalModeLeaksBadData(t *testing.T) {
	// The concealment problem XED fixes: with XED disabled, a
	// detected-uncorrectable on-die error still ships (wrong) data with
	// no indication.
	c := newTestChip()
	a := WordAddr{Bank: 0, Row: 1, Col: 2}
	c.Write(a, 0x1234)
	c.InjectFault(NewWordFault(a, 0b101000001, 0, false)) // 3-bit error
	r := c.Read(a)
	if r.IsCatchWord {
		t.Fatal("conventional chip must never send a catch-word")
	}
	if r.Status == ecc.StatusOK {
		t.Fatalf("3-bit corruption should not read as clean")
	}
}

func TestChipReadRawBypassesDCMux(t *testing.T) {
	// Serial-mode correction (§VII-B): the controller clears XED-Enable
	// and rereads so the on-die engine's corrected value reaches the bus.
	c := newTestChip()
	c.SetXEDEnable(true)
	c.SetCatchWord(0xbeef)
	a := WordAddr{Bank: 3, Row: 60, Col: 15}
	c.Write(a, 0x77)
	c.InjectFault(NewBitFault(a, 3, false))
	if r := c.Read(a); !r.IsCatchWord {
		t.Fatal("expected catch-word with XED enabled")
	}
	data, st := c.ReadRaw(a)
	if data != 0x77 || st != ecc.StatusCorrected {
		t.Fatalf("ReadRaw = %#x, %v; want corrected 0x77", data, st)
	}
	if !c.XEDEnabled() {
		t.Fatal("ReadRaw must restore XED-Enable")
	}
}

func TestChipTransientFaultClearedByRewrite(t *testing.T) {
	c := newTestChip()
	a := WordAddr{Bank: 1, Row: 1, Col: 1}
	c.Write(a, 10)
	c.InjectFault(NewBitFault(a, 0, true))
	if r := c.Read(a); r.Status != ecc.StatusCorrected {
		t.Fatalf("expected corrected read, got %v", r.Status)
	}
	c.Write(a, 11) // rewrite clears the upset
	if r := c.Read(a); r.Status != ecc.StatusOK || r.Data != 11 {
		t.Fatalf("after rewrite: %+v", r)
	}
}

func TestChipPermanentFaultSurvivesRewrite(t *testing.T) {
	c := newTestChip()
	a := WordAddr{Bank: 1, Row: 1, Col: 1}
	c.Write(a, 10)
	c.InjectFault(NewBitFault(a, 0, false))
	c.Write(a, 11)
	if r := c.Read(a); r.Status != ecc.StatusCorrected {
		t.Fatalf("permanent fault vanished after rewrite: %+v", r)
	}
}

func TestChipClearTransientFaults(t *testing.T) {
	c := newTestChip()
	a := WordAddr{Bank: 0, Row: 2, Col: 2}
	c.Write(a, 5)
	c.InjectFault(NewBitFault(a, 1, true))
	c.InjectFault(NewBitFault(a, 2, false))
	c.ClearTransientFaults()
	fs := c.Faults()
	if len(fs) != 1 || fs[0].Transient {
		t.Fatalf("faults after scrub: %+v", fs)
	}
}

func TestChipClearTransientFaultsZeroesTail(t *testing.T) {
	// The scrub filters in place; the dropped tail of the backing array
	// must be zeroed so cleared faults cannot pin memory or resurface
	// through slices aliased before the scrub.
	c := newTestChip()
	a := WordAddr{Bank: 0, Row: 2, Col: 2}
	c.InjectFault(NewBitFault(a, 1, false))
	c.InjectFault(NewBitFault(a, 2, true))
	c.InjectFault(NewBitFault(a, 3, true))
	backing := c.faults // aliases the backing array the scrub truncates
	c.ClearTransientFaults()
	if len(c.faults) != 1 {
		t.Fatalf("kept %d faults, want 1", len(c.faults))
	}
	for i, f := range backing[1:] {
		if f != (Fault{}) {
			t.Fatalf("dropped slot %d not zeroed: %+v", i+1, f)
		}
	}
}

func TestChipRowFaultCorruptsWholeRow(t *testing.T) {
	c := newTestChip()
	for col := 0; col < 16; col++ {
		c.Write(WordAddr{Bank: 2, Row: 30, Col: col}, uint64(col))
		c.Write(WordAddr{Bank: 2, Row: 31, Col: col}, uint64(col))
	}
	c.InjectFault(NewRowFault(2, 30, false, 99))
	bad := 0
	for col := 0; col < 16; col++ {
		if r := c.Read(WordAddr{Bank: 2, Row: 30, Col: col}); r.Status != ecc.StatusOK {
			bad++
		}
	}
	// Dense random corruption: the real code detects nearly every word.
	if bad < 14 {
		t.Fatalf("only %d/16 words of the failed row detected", bad)
	}
	for col := 0; col < 16; col++ {
		if r := c.Read(WordAddr{Bank: 2, Row: 31, Col: col}); r.Status != ecc.StatusOK || r.Data != uint64(col) {
			t.Fatalf("neighbour row corrupted at col %d: %+v", col, r)
		}
	}
}

func TestChipColumnFaultScope(t *testing.T) {
	c := newTestChip()
	c.InjectFault(NewColumnFault(1, 5, false, 7))
	hit, miss := 0, 0
	for row := 0; row < 64; row++ {
		if r := c.Read(WordAddr{Bank: 1, Row: row, Col: 5}); r.Status != ecc.StatusOK {
			hit++
		}
		if r := c.Read(WordAddr{Bank: 1, Row: row, Col: 6}); r.Status != ecc.StatusOK {
			miss++
		}
	}
	if hit < 60 {
		t.Fatalf("column fault detected in only %d/64 rows", hit)
	}
	if miss != 0 {
		t.Fatalf("column fault leaked into other columns %d times", miss)
	}
}

func TestChipBankAndChipFaultScope(t *testing.T) {
	c := newTestChip()
	c.InjectFault(NewBankFault(3, false, 8))
	if r := c.Read(WordAddr{Bank: 3, Row: 0, Col: 0}); r.Status == ecc.StatusOK {
		t.Fatal("bank fault missed bank 3")
	}
	if r := c.Read(WordAddr{Bank: 0, Row: 0, Col: 0}); r.Status != ecc.StatusOK {
		t.Fatal("bank fault leaked into bank 0")
	}
	c2 := newTestChip()
	c2.InjectFault(NewChipFault(false, 9))
	for bank := 0; bank < 4; bank++ {
		if r := c2.Read(WordAddr{Bank: bank, Row: 1, Col: 1}); r.Status == ecc.StatusOK {
			t.Fatalf("chip fault missed bank %d", bank)
		}
	}
}

func TestChipMultiBankFaultScope(t *testing.T) {
	c := newTestChip()
	c.InjectFault(NewMultiBankFault(0b0101, false, 3))
	for bank := 0; bank < 4; bank++ {
		r := c.Read(WordAddr{Bank: bank, Row: 0, Col: 0})
		want := bank == 0 || bank == 2
		if got := r.Status != ecc.StatusOK; got != want {
			t.Fatalf("bank %d corrupted=%v, want %v", bank, got, want)
		}
	}
}

func TestScalingFaultDensity(t *testing.T) {
	// At rate 1e-3 per bit, ~6.9% of words should carry a weak cell.
	c := NewChip(Geometry{Banks: 8, RowsPerBank: 256, ColsPerRow: 32}, ecc.NewCRC8ATM())
	c.SetScaling(ScalingProfile{Rate: 1e-3, Seed: 4})
	faulty, total := 0, 0
	for bank := 0; bank < 8; bank++ {
		for row := 0; row < 256; row++ {
			for col := 0; col < 32; col++ {
				total++
				if _, ok := c.scalingBit(c.geom.index(WordAddr{Bank: bank, Row: row, Col: col})); ok {
					faulty++
				}
			}
		}
	}
	got := float64(faulty) / float64(total)
	want := 1 - pow(1-1e-3, 72)
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("scaling density = %v, want ≈%v", got, want)
	}
}

func pow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

func TestScalingFaultAlwaysCorrectedOnDie(t *testing.T) {
	// Scaling faults are single-bit by construction, so the on-die code
	// always corrects them (or XED turns them into catch-words).
	c := newTestChip()
	c.SetScaling(ScalingProfile{Rate: 0.05, Seed: 11}) // exaggerated rate
	rng := simrand.New(12)
	sawFaulty := false
	for i := 0; i < 4096; i++ {
		a := WordAddr{Bank: rng.Intn(4), Row: rng.Intn(64), Col: rng.Intn(16)}
		v := rng.Uint64()
		c.Write(a, v)
		r := c.Read(a)
		if r.Data != v {
			t.Fatalf("scaling fault not corrected at %v: got %#x want %#x", a, r.Data, v)
		}
		if r.Status == ecc.StatusCorrected {
			sawFaulty = true
		}
	}
	if !sawFaulty {
		t.Fatal("expected some scaling faults at 5% word rate")
	}
}

func TestGeometryValidateAndBounds(t *testing.T) {
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry should be invalid")
	}
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Words() != 2*1024*1024*1024/64 {
		t.Fatalf("default geometry words = %d, want 2Gbit/64", g.Words())
	}
	if g.Contains(WordAddr{Bank: 8, Row: 0, Col: 0}) {
		t.Fatal("bank 8 out of range for 8-bank geometry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range read")
		}
	}()
	NewChip(testGeom(), ecc.NewCRC8ATM()).Read(WordAddr{Bank: 99, Row: 0, Col: 0})
}

func BenchmarkChipReadClean(b *testing.B) {
	c := newTestChip()
	a := WordAddr{Bank: 0, Row: 0, Col: 0}
	c.Write(a, 0x1234)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(a)
	}
}

func BenchmarkChipReadFaulty(b *testing.B) {
	c := newTestChip()
	c.SetXEDEnable(true)
	c.SetCatchWord(0xbeef)
	a := WordAddr{Bank: 0, Row: 0, Col: 0}
	c.Write(a, 0x1234)
	c.InjectFault(NewBitFault(a, 5, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(a)
	}
}

func TestSilentEscapeRateMatchesCodeAlgebra(t *testing.T) {
	// Cross-check the functional model against the code's syndrome
	// geometry: a uniformly random (64+8)-bit corruption pattern lands
	// on a valid codeword with probability 2^-8 ≈ 0.39%. The chip's
	// SilentCorrupt counter must reproduce that rate.
	c := newTestChip()
	rng := simrand.New(0x51e7)
	const trials = 60_000
	for i := 0; i < trials; i++ {
		a := WordAddr{Bank: rng.Intn(4), Row: rng.Intn(64), Col: rng.Intn(16)}
		c.ClearFaults()
		mask := rng.Uint64()
		if mask == 0 {
			mask = 1
		}
		c.InjectFault(NewWordFault(a, mask, uint8(rng.Uint64()), false))
		c.Write(a, rng.Uint64())
		c.Read(a)
	}
	silent := float64(c.SilentCorrupt())
	want := trials / 256.0
	if silent < want*0.7 || silent > want*1.3 {
		t.Fatalf("silent escapes %v, want ≈%v (2^-8 of %d)", silent, want, trials)
	}
}
