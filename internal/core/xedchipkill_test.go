package core

import (
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

func newXEDChipkill(t testing.TB) *XEDChipkillController {
	t.Helper()
	rank := dram.MustNewRank(ChipkillChips, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	return NewXEDChipkillController(rank, 0xbeef)
}

func blockOfRng(rng *simrand.Source) Block {
	var b Block
	for i := range b {
		b[i] = rng.Uint64()
	}
	return b
}

func TestXEDChipkillCleanRoundTrip(t *testing.T) {
	c := newXEDChipkill(t)
	rng := simrand.New(30)
	for trial := 0; trial < 50; trial++ {
		a := dram.WordAddr{Bank: rng.Intn(4), Row: rng.Intn(32), Col: rng.Intn(128)}
		data := blockOfRng(rng)
		c.WriteBlock(a, data)
		got, outcome := c.ReadBlock(a)
		if outcome != OutcomeClean || got != data {
			t.Fatalf("trial %d: outcome %v", trial, outcome)
		}
	}
}

func TestXEDChipkillSurvivesTwoChipFailures(t *testing.T) {
	// §IX headline: Double-Chipkill-level correction on Single-Chipkill
	// hardware, for any pair of chips including the check chips.
	pairs := [][2]int{{0, 1}, {3, 9}, {15, 16}, {16, 17}, {5, 17}}
	for _, pair := range pairs {
		c := newXEDChipkill(t)
		rng := simrand.New(uint64(31 + pair[0]))
		a := dram.WordAddr{Bank: 1, Row: 5, Col: 9}
		data := blockOfRng(rng)
		c.WriteBlock(a, data)
		c.Rank().InjectChipFailure(pair[0], dram.NewChipFault(false, 7))
		c.Rank().InjectChipFailure(pair[1], dram.NewChipFault(false, 8))
		got, outcome := c.ReadBlock(a)
		if outcome != OutcomeCorrectedErasure {
			t.Fatalf("pair %v: outcome %v", pair, outcome)
		}
		if got != data {
			t.Fatalf("pair %v: data mismatch", pair)
		}
	}
}

func TestXEDChipkillThreeChipFailuresNotSurvivable(t *testing.T) {
	// Beyond the design point: three concurrent chip failures exceed
	// two check symbols no matter how they are located. The system must
	// fail — as a DUE, or as an SDC when a chip's on-die engine
	// mis-corrects its dense damage into a valid wrong codeword and the
	// two erasures consume all redundancy. It must never return correct
	// data (impossible) nor classify the block as clean.
	for seed := uint64(0); seed < 8; seed++ {
		c := newXEDChipkill(t)
		rng := simrand.New(33 + seed)
		a := dram.WordAddr{Bank: 0, Row: 2, Col: 4}
		data := blockOfRng(rng)
		c.WriteBlock(a, data)
		for _, chip := range []int{2, 7, 11} {
			c.Rank().InjectChipFailure(chip, dram.NewChipFault(false, uint64(chip)+seed*100))
		}
		got, outcome := c.ReadBlock(a)
		if outcome == OutcomeClean {
			t.Fatalf("seed %d: three chip failures read as clean", seed)
		}
		if got == data {
			t.Fatalf("seed %d: three chip failures 'corrected' to true data?!", seed)
		}
	}
}

func TestXEDChipkillScalingFaultsSerialMode(t *testing.T) {
	// Scaling faults in more chips than the erasure budget: serial mode
	// lets each chip's on-die engine repair its own single-bit fault.
	c := newXEDChipkill(t)
	rng := simrand.New(34)
	a := dram.WordAddr{Bank: 2, Row: 8, Col: 16}
	data := blockOfRng(rng)
	c.WriteBlock(a, data)
	for _, chip := range []int{1, 4, 9, 13} {
		c.Rank().Chip(chip).InjectFault(dram.NewBitFault(a, chip*3, false))
	}
	got, outcome := c.ReadBlock(a)
	if outcome != OutcomeCorrectedSerial {
		t.Fatalf("outcome %v, want serial", outcome)
	}
	if got != data {
		t.Fatal("serial-mode data mismatch")
	}
}

func TestXEDChipkillUnlocatedSilentChipError(t *testing.T) {
	// A silent-on-die word error with no catch-word: the RS code must
	// locate and correct it (classic Chipkill behaviour retained).
	c := newXEDChipkill(t)
	rng := simrand.New(35)
	a := dram.WordAddr{Bank: 3, Row: 1, Col: 2}
	data := blockOfRng(rng)
	c.WriteBlock(a, data)
	c.Rank().Chip(6).InjectFault(silentWordFault(a, false))
	got, outcome := c.ReadBlock(a)
	if outcome != OutcomeCorrectedDiagnosis {
		t.Fatalf("outcome %v, want corrected-diagnosis", outcome)
	}
	if got != data {
		t.Fatal("unlocated correction mismatch")
	}
}

func TestXEDChipkillCollision(t *testing.T) {
	c := newXEDChipkill(t)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 1}
	var data Block
	data[7] = c.cw.words[7]
	c.WriteBlock(a, data)
	got, outcome := c.ReadBlock(a)
	if outcome != OutcomeCorrectedErasure || got != data {
		t.Fatalf("collision read: outcome %v", outcome)
	}
	if c.Stats().Collisions != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// Regenerated catch-word: same line now reads clean.
	got, outcome = c.ReadBlock(a)
	if outcome != OutcomeClean || got != data {
		t.Fatalf("post-collision read: outcome %v", outcome)
	}
}

func TestXEDChipkillNeeds18Chips(t *testing.T) {
	rank := dram.MustNewRank(9, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewXEDChipkillController(rank, 1)
}

func BenchmarkXEDChipkillReadClean(b *testing.B) {
	c := newXEDChipkill(b)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteBlock(a, Block{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadBlock(a)
	}
}

func BenchmarkXEDChipkillTwoErasures(b *testing.B) {
	c := newXEDChipkill(b)
	a := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	c.WriteBlock(a, Block{})
	c.Rank().InjectChipFailure(3, dram.NewChipFault(false, 1))
	c.Rank().InjectChipFailure(9, dram.NewChipFault(false, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadBlock(a)
	}
}
