package core

import (
	"testing"
	"testing/quick"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

func testGeom() dram.Geometry { return dram.Geometry{Banks: 4, RowsPerBank: 32, ColsPerRow: 128} }

func newXED(t testing.TB, opts ...Option) *Controller {
	t.Helper()
	rank := dram.MustNewRank(9, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	return NewController(rank, 0xdead, opts...)
}

func lineOf(rng *simrand.Source) Line {
	var l Line
	for i := range l {
		l[i] = rng.Uint64()
	}
	return l
}

// silentWordFault builds a word fault whose error pattern is itself a valid
// CRC8-ATM codeword, so the on-die engine cannot see it — the 0.8% case of
// §VI made deterministic for tests.
func silentWordFault(a dram.WordAddr, transient bool) dram.Fault {
	code := ecc.NewCRC8ATM()
	pattern := code.Encode(0xb00b1e5) // error polynomial = codeword of 0xb00b1e5
	return dram.NewWordFault(a, pattern.Data, pattern.Check, transient)
}

func TestXEDCleanRoundTrip(t *testing.T) {
	c := newXED(t)
	rng := simrand.New(1)
	f := func(bank, row, col uint8) bool {
		a := dram.WordAddr{Bank: int(bank) % 4, Row: int(row) % 32, Col: int(col) % 128}
		data := lineOf(rng)
		c.WriteLine(a, data)
		res := c.ReadLine(a)
		return res.Outcome == OutcomeClean && res.Data == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if c.Stats().CleanReads == 0 {
		t.Fatal("no clean reads recorded")
	}
}

func TestXEDSurvivesAnyDataChipFailure(t *testing.T) {
	// The headline result (§V-C): a whole-chip failure is corrected on
	// every access using catch-words + RAID-3 parity.
	for chip := 0; chip < 8; chip++ {
		c := newXED(t)
		rng := simrand.New(uint64(2 + chip))
		a := dram.WordAddr{Bank: 1, Row: 7, Col: 13}
		data := lineOf(rng)
		c.WriteLine(a, data)
		c.Rank().InjectChipFailure(chip, dram.NewChipFault(false, uint64(chip)*31+7))
		for pass := 0; pass < 3; pass++ {
			res := c.ReadLine(a)
			if res.Outcome != OutcomeCorrectedErasure {
				t.Fatalf("chip %d pass %d: outcome %v", chip, pass, res.Outcome)
			}
			if res.Data != data {
				t.Fatalf("chip %d: corrected data mismatch", chip)
			}
			if len(res.FaultyChips) != 1 || res.FaultyChips[0] != chip {
				t.Fatalf("chip %d: blamed %v", chip, res.FaultyChips)
			}
		}
	}
}

func TestXEDSurvivesParityChipFailure(t *testing.T) {
	c := newXED(t)
	rng := simrand.New(3)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().InjectChipFailure(8, dram.NewChipFault(false, 55))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeCorrectedErasure || res.Data != data {
		t.Fatalf("parity-chip failure: %v, data ok=%v", res.Outcome, res.Data == data)
	}
}

func TestXEDRowFailureCorrectedAcrossRow(t *testing.T) {
	c := newXED(t)
	rng := simrand.New(4)
	var want [16]Line
	for col := 0; col < 16; col++ {
		want[col] = lineOf(rng)
		c.WriteLine(dram.WordAddr{Bank: 2, Row: 5, Col: col}, want[col])
	}
	c.Rank().Chip(3).InjectFault(dram.NewRowFault(2, 5, false, 77))
	for col := 0; col < 16; col++ {
		res := c.ReadLine(dram.WordAddr{Bank: 2, Row: 5, Col: col})
		if res.Data != want[col] {
			t.Fatalf("col %d: data mismatch (outcome %v)", col, res.Outcome)
		}
		if res.Outcome == OutcomeDUE {
			t.Fatalf("col %d: DUE", col)
		}
	}
}

func TestXEDCatchWordCollision(t *testing.T) {
	// §V-D: write the catch-word itself as data. The read must return
	// correct data, flag the collision, and regenerate the catch-word.
	c := newXED(t)
	a := dram.WordAddr{Bank: 0, Row: 1, Col: 2}
	var data Line
	data[5] = c.Rank().Chip(5).CatchWord() // legitimate data that equals chip 5's CW
	data[0] = 0x1111
	c.WriteLine(a, data)

	oldCW := c.Rank().Chip(5).CatchWord()
	res := c.ReadLine(a)
	if !res.Collision {
		t.Fatalf("collision not flagged (outcome %v)", res.Outcome)
	}
	if res.Data != data {
		t.Fatal("collision read returned wrong data")
	}
	if c.Rank().Chip(5).CatchWord() == oldCW {
		t.Fatal("catch-word not regenerated after collision")
	}
	if c.Stats().Collisions != 1 || c.Stats().CatchWordUpdates != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// After regeneration the same line reads clean.
	res = c.ReadLine(a)
	if res.Outcome != OutcomeClean || res.Data != data {
		t.Fatalf("post-regeneration read: %v", res.Outcome)
	}
}

func TestXEDScalingFaultsMultipleCatchWords(t *testing.T) {
	// §VII-B: single-bit scaling faults in several chips produce
	// multiple catch-words; serial mode recovers every beat because
	// on-die ECC is guaranteed to correct single-bit errors.
	c := newXED(t)
	rng := simrand.New(5)
	a := dram.WordAddr{Bank: 3, Row: 9, Col: 64}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().Chip(1).InjectFault(dram.NewBitFault(a, 17, false))
	c.Rank().Chip(4).InjectFault(dram.NewBitFault(a, 3, false))
	c.Rank().Chip(6).InjectFault(dram.NewBitFault(a, 70, false))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeCorrectedSerial {
		t.Fatalf("outcome %v, want serial correction", res.Outcome)
	}
	if res.Data != data {
		t.Fatal("serial-mode data mismatch")
	}
	if c.Stats().SerialCorrections != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestXEDSingleScalingFaultIsErasureCorrected(t *testing.T) {
	c := newXED(t)
	rng := simrand.New(6)
	a := dram.WordAddr{Bank: 0, Row: 2, Col: 3}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().Chip(2).InjectFault(dram.NewBitFault(a, 40, false))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeCorrectedErasure || res.Data != data {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestXEDChipFailureWithScalingFaults(t *testing.T) {
	// §VII-C: a runtime chip failure concurrent with scaling faults in
	// other chips. Serial mode corrects the scaling chips on-die;
	// the hard-failed chip stays suspect and is rebuilt from parity.
	c := newXED(t)
	rng := simrand.New(7)
	a := dram.WordAddr{Bank: 1, Row: 3, Col: 9}
	data := lineOf(rng)
	c.WriteLine(a, data)
	// Multi-bit (detected, uncorrectable on-die) damage on chip 0.
	c.Rank().Chip(0).InjectFault(dram.NewWordFault(a, 0b1011, 0, false))
	// Single-bit scaling faults elsewhere.
	c.Rank().Chip(5).InjectFault(dram.NewBitFault(a, 12, false))
	c.Rank().Chip(7).InjectFault(dram.NewBitFault(a, 60, false))
	res := c.ReadLine(a)
	if res.Data != data {
		t.Fatalf("data mismatch (outcome %v)", res.Outcome)
	}
	if res.Outcome != OutcomeCorrectedDiagnosis {
		t.Fatalf("outcome %v, want corrected-diagnosis", res.Outcome)
	}
}

func TestXEDUndetectedErrorInterLineDiagnosis(t *testing.T) {
	// §VI-A: the on-die code misses the accessed line's damage, but the
	// same chip shows catch-words on many neighbouring lines (a row
	// failure signature), so Inter-Line diagnosis convicts it.
	c := newXED(t)
	rng := simrand.New(8)
	row, bank := 11, 2
	var want [128]Line
	for col := 0; col < 128; col++ {
		want[col] = lineOf(rng)
		c.WriteLine(dram.WordAddr{Bank: bank, Row: row, Col: col}, want[col])
	}
	victim := dram.WordAddr{Bank: bank, Row: row, Col: 50}
	// Silent damage on the accessed line of chip 3...
	c.Rank().Chip(3).InjectFault(silentWordFault(victim, false))
	// ...and detectable damage on 20 neighbouring lines of the row.
	for col := 0; col < 20; col++ {
		c.Rank().Chip(3).InjectFault(dram.NewWordFault(
			dram.WordAddr{Bank: bank, Row: row, Col: col}, 0b11, 0, false))
	}
	res := c.ReadLine(victim)
	if res.Outcome != OutcomeCorrectedDiagnosis {
		t.Fatalf("outcome %v, want corrected-diagnosis", res.Outcome)
	}
	if res.Data != want[50] {
		t.Fatal("diagnosed read returned wrong data")
	}
	if len(res.FaultyChips) != 1 || res.FaultyChips[0] != 3 {
		t.Fatalf("blamed %v, want chip 3", res.FaultyChips)
	}
	st := c.Stats()
	if st.InterLineRuns != 1 {
		t.Fatalf("inter-line runs = %d, want 1", st.InterLineRuns)
	}
	if c.FCT().Lookup(bank, row) != 3 {
		t.Fatal("FCT did not record the diagnosis")
	}
	// Second access to the same row: FCT hit, no second inter-line run.
	res = c.ReadLine(victim)
	if res.Data != want[50] || c.Stats().InterLineRuns != 1 {
		t.Fatalf("FCT fast path failed (runs=%d)", c.Stats().InterLineRuns)
	}
}

func TestXEDUndetectedErrorIntraLineDiagnosis(t *testing.T) {
	// §VI-B: silent *permanent* damage confined to one line. Inter-line
	// finds nothing; the write/read pattern test convicts the chip.
	c := newXED(t)
	rng := simrand.New(9)
	a := dram.WordAddr{Bank: 0, Row: 20, Col: 66}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().Chip(6).InjectFault(silentWordFault(a, false))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeCorrectedDiagnosis {
		t.Fatalf("outcome %v, want corrected-diagnosis", res.Outcome)
	}
	if res.Data != data {
		t.Fatal("intra-line corrected read returned wrong data")
	}
	st := c.Stats()
	if st.IntraLineRuns != 1 || st.InterLineRuns != 1 {
		t.Fatalf("diagnosis runs = %+v", st)
	}
}

func TestXEDTransientSilentWordFaultIsDUE(t *testing.T) {
	// §VIII: a transient word fault the on-die code missed. Both
	// diagnoses fail (the fault does not reproduce under rewrite), so
	// XED reports a detected uncorrectable error rather than silently
	// returning bad data.
	c := newXED(t)
	rng := simrand.New(10)
	a := dram.WordAddr{Bank: 1, Row: 21, Col: 5}
	data := lineOf(rng)
	c.WriteLine(a, data)
	c.Rank().Chip(4).InjectFault(silentWordFault(a, true))
	res := c.ReadLine(a)
	if res.Outcome != OutcomeDUE {
		t.Fatalf("outcome %v, want DUE", res.Outcome)
	}
	if c.Stats().DUEs != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestXEDColumnFailureSaturatesFCT(t *testing.T) {
	// §VI-A sizing argument: a column/bank failure produces diagnosis
	// verdicts for many rows, all naming the same chip; the FCT fills
	// and the chip is permanently marked.
	c := newXED(t, WithFCTEntries(4))
	rng := simrand.New(11)
	bank, col := 1, 30
	var want [32]Line
	for row := 0; row < 32; row++ {
		want[row] = lineOf(rng)
		c.WriteLine(dram.WordAddr{Bank: bank, Row: row, Col: col}, want[row])
	}
	// A column failure on chip 2 whose per-line damage is silent (worst
	// case for on-die detection): silent word faults down the column.
	code := ecc.NewCRC8ATM()
	for row := 0; row < 32; row++ {
		pattern := code.Encode(uint64(row)*77 + 1)
		c.Rank().Chip(2).InjectFault(dram.NewWordFault(
			dram.WordAddr{Bank: bank, Row: row, Col: col}, pattern.Data, pattern.Check, false))
	}
	for row := 0; row < 32; row++ {
		res := c.ReadLine(dram.WordAddr{Bank: bank, Row: row, Col: col})
		if res.Data != want[row] {
			t.Fatalf("row %d: wrong data (outcome %v)", row, res.Outcome)
		}
	}
	if c.FCT().MarkedChip() != 2 {
		t.Fatalf("FCT marked chip = %d, want 2", c.FCT().MarkedChip())
	}
	if c.Stats().FCTChipMarks != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// Once marked, new rows skip diagnosis entirely.
	runsBefore := c.Stats().IntraLineRuns
	extra := lineOf(rng)
	c.WriteLine(dram.WordAddr{Bank: bank, Row: 31, Col: 29}, extra)
	pattern := code.Encode(12345)
	c.Rank().Chip(2).InjectFault(dram.NewWordFault(
		dram.WordAddr{Bank: bank, Row: 31, Col: 29}, pattern.Data, pattern.Check, false))
	res := c.ReadLine(dram.WordAddr{Bank: bank, Row: 31, Col: 29})
	if res.Data != extra {
		t.Fatal("marked-chip reconstruction failed")
	}
	if c.Stats().IntraLineRuns != runsBefore {
		t.Fatal("diagnosis re-ran despite permanent chip mark")
	}
}

func TestXEDNeedsNineChips(t *testing.T) {
	rank := dram.MustNewRank(8, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 8-chip rank")
		}
	}()
	NewController(rank, 1)
}

func TestXEDCatchWordsAreDistinctAndProgrammed(t *testing.T) {
	c := newXED(t)
	seen := map[uint64]bool{}
	for i := 0; i <= DataChips; i++ {
		cw := c.cw.words[i]
		if seen[cw] {
			t.Fatalf("duplicate catch-word for chip %d", i)
		}
		seen[cw] = true
		if c.Rank().Chip(i).CatchWord() != cw {
			t.Fatalf("chip %d CWR not programmed", i)
		}
		if !c.Rank().Chip(i).XEDEnabled() {
			t.Fatalf("chip %d XED-Enable not set", i)
		}
	}
}

func BenchmarkXEDReadClean(b *testing.B) {
	c := newXED(b)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteLine(a, Line{1, 2, 3, 4, 5, 6, 7, 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadLine(a)
	}
}

func BenchmarkXEDReadChipFailure(b *testing.B) {
	c := newXED(b)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteLine(a, Line{1, 2, 3, 4, 5, 6, 7, 8})
	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadLine(a)
	}
}

func TestInterLineThresholdPinned(t *testing.T) {
	// §VI-A's 10% threshold: a transient row failure whose accessed line
	// is silent can only be rescued by Inter-Line diagnosis (Intra-Line
	// needs permanence). 12 flagged neighbours of a 128-line row reach
	// the threshold and convict the chip; 11 do not, and the read becomes
	// a DUE.
	build := func(flagged int) (*Controller, dram.WordAddr, Line) {
		rank := dram.MustNewRank(9, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
		c := NewController(rank, 0xabc)
		rng := simrand.New(90)
		victim := dram.WordAddr{Bank: 1, Row: 6, Col: 77}
		var want Line
		for col := 0; col < 128; col++ {
			l := lineOf(rng)
			if col == victim.Col {
				want = l
			}
			c.WriteLine(dram.WordAddr{Bank: 1, Row: 6, Col: col}, l)
		}
		c.Rank().Chip(4).InjectFault(silentWordFault(victim, true))
		for col := 0; col < flagged; col++ {
			c.Rank().Chip(4).InjectFault(dram.NewWordFault(
				dram.WordAddr{Bank: 1, Row: 6, Col: col}, 0b11, 0, true))
		}
		return c, victim, want
	}

	c, victim, want := build(12)
	res := c.ReadLine(victim)
	if res.Outcome != OutcomeCorrectedDiagnosis || res.Data != want {
		t.Fatalf("12 of 128 flagged: %v (dataOK=%v)", res.Outcome, res.Data == want)
	}

	c, victim, _ = build(11)
	res = c.ReadLine(victim)
	if res.Outcome != OutcomeDUE {
		t.Fatalf("11 of 128 flagged: %v, want DUE", res.Outcome)
	}
}

// TestXEDTwoDeadChipsDUE: two dead chips in a rank both send catch-words
// on nearly every line of a row, so §VI-A convicts neither — convicting
// the one that flagged a line more would rebuild the line from the other's
// garbage — and intra-line diagnosis finds both. Such a read is a DUE,
// never wrong data, as faultsim judges two concurrent chip failures in a
// rank. About one word in 256 of a dead chip's garbage is a valid codeword
// and sends no catch-word; a read where one of the two stays silent takes
// the single-erasure path instead, whose wrong rebuild is the open
// correctSingleErasure defect (ROADMAP 5), so it is counted, not judged.
func TestXEDTwoDeadChipsDUE(t *testing.T) {
	judged := 0
	for _, pair := range [][2]int{{3, 8}, {3, 5}} {
		for seed := uint64(100); seed < 120; seed++ {
			c := newXED(t)
			rng := simrand.New(seed)
			a := dram.WordAddr{Bank: 1, Row: 7, Col: 19}
			data := lineOf(rng)
			c.WriteLine(a, data)
			c.Rank().InjectChipFailure(pair[0], dram.NewChipFault(false, seed))
			c.Rank().InjectChipFailure(pair[1], dram.NewChipFault(false, seed+1000))
			res := c.ReadLine(a)
			if c.Stats().CatchWordsSeen != 2 {
				t.Logf("chips %v dead, seed %d: one chip silent, %v (dataOK=%v)", pair, seed, res.Outcome, res.Data == data)
				continue
			}
			judged++
			if res.Outcome != OutcomeDUE {
				t.Fatalf("chips %v dead, seed %d: %v (dataOK=%v), want DUE", pair, seed, res.Outcome, res.Data == data)
			}
		}
	}
	if judged < 36 {
		t.Fatalf("only %d of 40 reads saw both catch-words; the test has no power", judged)
	}
}

func TestXEDReadOfUnwrittenLineWithChipFailure(t *testing.T) {
	// Unwritten lines read as zero; a failed chip must not change that.
	c := newXED(t)
	c.Rank().InjectChipFailure(2, dram.NewChipFault(false, 12))
	res := c.ReadLine(dram.WordAddr{Bank: 3, Row: 30, Col: 99})
	if res.Data != (Line{}) {
		t.Fatalf("unwritten line reads %v", res.Data)
	}
	if res.Outcome == OutcomeDUE {
		t.Fatal("unwritten read should still be correctable")
	}
}

func TestXEDCollisionStorm(t *testing.T) {
	// §V-D under stress: repeatedly store data that equals the current
	// catch-word of some chip. Every episode must return correct data,
	// flag the collision, and rotate that chip's catch-word — 200 times
	// in a row, including parity-chip collisions.
	c := newXED(t)
	rng := simrand.New(0x50f7)
	for i := 0; i < 200; i++ {
		chip := rng.Intn(9)
		a := dram.WordAddr{Bank: rng.Intn(4), Row: rng.Intn(32), Col: rng.Intn(128)}
		var data Line
		for b := range data {
			data[b] = rng.Uint64()
		}
		if chip < 8 {
			data[chip] = c.Rank().Chip(chip).CatchWord()
		} else {
			// Parity collision: choose data whose XOR equals the
			// parity chip's catch-word.
			var x uint64
			for b := 0; b < 7; b++ {
				x ^= data[b]
			}
			data[7] = x ^ c.Rank().Chip(8).CatchWord()
		}
		before := c.Rank().Chip(chip).CatchWord()
		c.WriteLine(a, data)
		res := c.ReadLine(a)
		if res.Data != data {
			t.Fatalf("episode %d: wrong data (outcome %v)", i, res.Outcome)
		}
		if chip < 8 {
			if !res.Collision {
				t.Fatalf("episode %d: collision not flagged", i)
			}
			if c.Rank().Chip(chip).CatchWord() == before {
				t.Fatalf("episode %d: catch-word not rotated", i)
			}
		}
		// The very same line must read clean afterwards.
		res = c.ReadLine(a)
		if res.Data != data {
			t.Fatalf("episode %d: post-rotation reread wrong", i)
		}
	}
	st := c.Stats()
	if st.Collisions < 170 || st.CatchWordUpdates < 170 {
		t.Fatalf("collision accounting: %+v", st)
	}
	if st.DUEs != 0 {
		t.Fatalf("collision storm caused %d DUEs", st.DUEs)
	}
}
