package infer

import (
	"math/bits"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

func TestProfileChipClassifiesWords(t *testing.T) {
	chip := dram.NewChip(testGeom(), ecc.NewCRC8ATM())
	clean := dram.WordAddr{Bank: 0, Row: 0, Col: 0}
	atRisk := dram.WordAddr{Bank: 0, Row: 1, Col: 0} // single stuck bit: on-die corrects
	broken := dram.WordAddr{Bank: 1, Row: 2, Col: 3} // double stuck bits: uncorrectable
	chip.InjectFault(dram.NewBitFault(atRisk, 9, false))
	chip.InjectFault(dram.NewWordFault(broken, 1<<5|1<<33, 0, false))

	p := ProfileChip(chip, []dram.WordAddr{clean, atRisk, broken}, HARPOptions{Rounds: 6, Seed: 2})

	if w := p.Words[0]; w.AtRisk() || w.Uncorrectable() || w.Direct != 0 {
		t.Fatalf("clean word profiled as %+v", w)
	}
	if w := p.Words[1]; !w.AtRisk() || w.Uncorrectable() {
		// The on-die engine corrects the single stuck bit on every read:
		// full activity, zero direct errors.
		t.Fatalf("at-risk word profiled as %+v", w)
	} else if w.Activity != w.Reads {
		t.Fatalf("at-risk word: activity %d over %d reads, want every read", w.Activity, w.Reads)
	}
	if w := p.Words[2]; !w.Uncorrectable() {
		t.Fatalf("broken word profiled as %+v", w)
	} else if w.Direct != 1<<5|1<<33 {
		// CRC8 detects the double error and ships raw data: exactly the
		// two stuck positions read back wrong.
		t.Fatalf("broken word direct mask %#x, want %#x", w.Direct, uint64(1<<5|1<<33))
	} else if n := bits.OnesCount64(w.Direct); n != 2 {
		t.Fatalf("%d post-correction error bits, want 2", n)
	}

	if got := p.PredictUncorrectable(); len(got) != 1 || got[0] != broken {
		t.Fatalf("PredictUncorrectable = %v, want [%v]", got, broken)
	}
	if got := p.PredictAtRisk(); len(got) != 2 || got[0] != atRisk || got[1] != broken {
		t.Fatalf("PredictAtRisk = %v, want [%v %v]", got, atRisk, broken)
	}
}

func TestProfileChipTargetsPermanentFaults(t *testing.T) {
	// Each profiling write re-encodes the word, so transient damage from
	// before the pass does not register: the profile isolates the faults
	// that will repeat at runtime.
	chip := dram.NewChip(testGeom(), ecc.NewCRC8ATM())
	a := dram.WordAddr{Bank: 0, Row: 3, Col: 1}
	chip.Write(a, 0xdead)
	chip.InjectFault(dram.NewWordFault(a, 1<<2|1<<7|1<<50, 0, true))
	p := ProfileChip(chip, []dram.WordAddr{a}, HARPOptions{Rounds: 4, Seed: 1})
	if w := p.Words[0]; w.AtRisk() || w.Direct != 0 {
		t.Fatalf("transient pre-pass damage registered in profile: %+v", w)
	}
}

func TestProfileChipRestoresRegisters(t *testing.T) {
	chip := dram.NewChip(testGeom(), ecc.NewHsiao())
	chip.SetCatchWord(0x1234)
	chip.SetXEDEnable(false)
	ProfileChip(chip, []dram.WordAddr{{}}, HARPOptions{Rounds: 1})
	if chip.CatchWord() != 0x1234 || chip.XEDEnabled() {
		t.Fatalf("registers not restored: catch %#x xed %v", chip.CatchWord(), chip.XEDEnabled())
	}
}

func TestProfileChipUncorrectableIsAtRisk(t *testing.T) {
	// Every uncorrectable word must also appear in the at-risk set.
	chip := dram.NewChip(testGeom(), ecc.NewHamming())
	a := dram.WordAddr{Bank: 1, Row: 1, Col: 1}
	chip.InjectFault(dram.NewWordFault(a, 1|1<<63, 0, false))
	p := ProfileChip(chip, []dram.WordAddr{a}, HARPOptions{Rounds: 3, Seed: 9})
	if !p.Words[0].Uncorrectable() || !p.Words[0].AtRisk() {
		t.Fatalf("double-bit word: %+v", p.Words[0])
	}
}
