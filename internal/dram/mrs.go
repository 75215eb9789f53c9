package dram

import "fmt"

// Mode Register Set (MRS) interface (§V-A): "DRAM DIMMs use a separate
// interface to update internal parameters using Mode Set Registers.
// XED-Enable and CWR registers can also be configured using the MRS."
//
// The XED extensions occupy vendor-defined registers: one bit of MRXED
// enables the DC-Mux, and the 64-bit Catch-Word Register is written as
// four 16-bit slices (the MRS data field is 16 bits wide on DDR3/4). The
// total state added per chip is 65 bits, the paper's storage-overhead
// claim.

// ModeRegister identifies one MRS-addressable register.
type ModeRegister int

const (
	// MRXEDEnable holds the XED-Enable bit in bit 0.
	MRXEDEnable ModeRegister = iota
	// MRCatchWord0..3 hold the catch-word, least-significant slice
	// first.
	MRCatchWord0
	MRCatchWord1
	MRCatchWord2
	MRCatchWord3
	numModeRegisters
)

// MRSWrite performs one mode-register-set command with a 16-bit operand,
// exactly as the command bus delivers it. SetXEDEnable and SetCatchWord
// are conveniences layered on this entry point.
func (c *Chip) MRSWrite(reg ModeRegister, value uint16) {
	switch reg {
	case MRXEDEnable:
		c.xedEnable = value&1 == 1
	case MRCatchWord0, MRCatchWord1, MRCatchWord2, MRCatchWord3:
		shift := uint(reg-MRCatchWord0) * 16
		c.catchWord = c.catchWord&^(0xffff<<shift) | uint64(value)<<shift
	default:
		panic(fmt.Sprintf("dram: MRS write to unknown register %d", int(reg)))
	}
}

// MRSBroadcast issues the same mode-register write to every chip of the
// rank — how a controller programs XED-Enable in one command (the §VII-B
// serial-mode dance toggles it around a re-read).
func (r *Rank) MRSBroadcast(reg ModeRegister, value uint16) {
	for _, c := range r.chips {
		c.MRSWrite(reg, value)
	}
}
