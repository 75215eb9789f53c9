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

func TestMRSBroadcast(t *testing.T) {
	r := newTestRank(9)
	r.MRSBroadcast(MRXEDEnable, 1)
	// The 64-bit catch-word is four 16-bit slices: with the enable bit,
	// the 65-bit state of §V-A is programmed in five commands.
	for i := 0; i < 4; i++ {
		r.MRSBroadcast(MRCatchWord0+ModeRegister(i), uint16(0x1111*(i+1)))
	}
	for i := 0; i < 9; i++ {
		if !r.Chip(i).XEDEnabled() {
			t.Fatalf("chip %d not enabled by broadcast", i)
		}
		if got := r.Chip(i).CatchWord(); got != 0x4444333322221111 {
			t.Fatalf("chip %d catch-word %#x after broadcast", i, got)
		}
	}
	r.MRSBroadcast(MRXEDEnable, 0)
	for i := 0; i < 9; i++ {
		if r.Chip(i).XEDEnabled() {
			t.Fatalf("chip %d not disabled by broadcast", i)
		}
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
