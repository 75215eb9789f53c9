package dram

import (
	"testing"
	"testing/quick"

	"xedsim/internal/ecc"
)

func TestMRSCatchWordSlices(t *testing.T) {
	c := newTestChip()
	f := func(cw uint64) bool {
		c.SetCatchWord(cw)
		return c.CatchWord() == cw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMRSPartialCatchWordUpdate(t *testing.T) {
	c := newTestChip()
	c.SetCatchWord(0x1111222233334444)
	c.MRSWrite(MRCatchWord2, 0xabcd)
	if got := c.CatchWord(); got != 0x1111abcd33334444 {
		t.Fatalf("partial MRS update = %#x", got)
	}
}

func TestMRSEnableBit(t *testing.T) {
	c := newTestChip()
	c.MRSWrite(MRXEDEnable, 1)
	if !c.XEDEnabled() {
		t.Fatal("enable bit not set")
	}
	c.MRSWrite(MRXEDEnable, 0xfffe) // bit 0 clear
	if c.XEDEnabled() {
		t.Fatal("enable bit not cleared")
	}
}

func TestMRSWriteCountsAndBroadcast(t *testing.T) {
	r := newTestRank(9)
	r.MRSBroadcast(MRXEDEnable, 1)
	for i := 0; i < 9; i++ {
		if !r.Chip(i).XEDEnabled() {
			t.Fatalf("chip %d not enabled by broadcast", i)
		}
		if r.Chip(i).Stats().MRSWrites != 1 {
			t.Fatalf("chip %d MRS count %d", i, r.Chip(i).Stats().MRSWrites)
		}
	}
	// SetCatchWord is four MRS writes — the 65-bit state of §V-A is
	// programmed in five commands total.
	r.Chip(0).SetCatchWord(0xdead)
	if got := r.Chip(0).Stats().MRSWrites; got != 5 {
		t.Fatalf("MRS writes = %d, want 5", got)
	}
}

func TestMRSUnknownRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestChip().MRSWrite(numModeRegisters, 0)
}

// Guard: the MRS path and the legacy setters must agree with the read
// path's view of the registers.
func TestMRSAgreesWithDCMux(t *testing.T) {
	c := NewChip(testGeom(), ecc.NewCRC8ATM())
	a := WordAddr{Bank: 0, Row: 0, Col: 0}
	c.Write(a, 1)
	c.InjectFault(NewBitFault(a, 3, false))
	c.MRSWrite(MRXEDEnable, 1)
	for i := 0; i < 4; i++ {
		c.MRSWrite(MRCatchWord0+ModeRegister(i), 0xbeef)
	}
	r := c.Read(a)
	want := uint64(0xbeefbeefbeefbeef)
	if !r.IsCatchWord || r.Data != want {
		t.Fatalf("read = %+v, want catch-word %#x", r, want)
	}
}
