package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// Baseline controllers the paper compares against. They drive the same
// functional DRAM model but use conventional (concealed) On-Die ECC — the
// chips never reveal detection information — so any protection must come
// from the DIMM-level code alone. These exist so the examples and tests
// can demonstrate Figure 1's point directly: a chip failure defeats
// DIMM-level SECDED, survives Chipkill, and survives XED.

// ECCDIMMController is the conventional 9-chip ECC-DIMM (§II-D1): per
// 8-byte beat, the 64 data bits (one byte from each data chip) are
// protected by an 8-bit SECDED code stored in the ninth chip. With On-Die
// ECC present, this DIMM-level code only ever sees multi-bit damage — the
// exact redundancy the paper calls "superfluous".
type ECCDIMMController struct {
	rank  *dram.Rank
	code  ecc.Code64
	stats Stats

	readBuf []dram.ReadResult // read-path scratch
}

// NewECCDIMMController wraps a 9-chip rank. The chips keep XED disabled;
// the DIMM-level code is the classic (72,64) Hamming SECDED.
func NewECCDIMMController(rank *dram.Rank) *ECCDIMMController {
	if rank.Chips() != DataChips+1 {
		panic(fmt.Sprintf("core: ECC-DIMM needs 9 chips, got %d", rank.Chips()))
	}
	rank.SetXEDEnable(false)
	return &ECCDIMMController{rank: rank, code: ecc.NewHamming()}
}

// Rank exposes the underlying rank.
func (c *ECCDIMMController) Rank() *dram.Rank { return c.rank }

// Stats returns a copy of the counters.
func (c *ECCDIMMController) Stats() Stats { return c.stats }

// WriteLine stores a line with per-beat SECDED check bytes in chip 8.
func (c *ECCDIMMController) WriteLine(a dram.WordAddr, data Line) {
	c.stats.Writes++
	var beats [DataChips + 1]uint64
	copy(beats[:DataChips], data[:])
	for b := 0; b < 8; b++ {
		cw := c.code.Encode(c.gatherBeat(data, b))
		beats[DataChips] |= uint64(cw.Check) << uint(8*b)
	}
	c.rank.WriteLine(a, beats[:])
}

// gatherBeat assembles the 64 bits that travel together on bus beat b: one
// byte from each data chip.
func (c *ECCDIMMController) gatherBeat(data Line, b int) uint64 {
	var v uint64
	for i := 0; i < DataChips; i++ {
		v |= uint64(uint8(data[i]>>uint(8*b))) << uint(8*i)
	}
	return v
}

// scatterBeat is the inverse of gatherBeat.
func scatterBeat(v uint64, b int, out *Line) {
	for i := 0; i < DataChips; i++ {
		out[i] &^= 0xff << uint(8*b)
		out[i] |= uint64(uint8(v>>uint(8*i))) << uint(8*b)
	}
}

// ReadLine decodes each beat with DIMM-level SECDED. A whole-chip failure
// contributes eight bad bits per beat — far beyond SECDED — so it either
// surfaces as OutcomeDUE or, worse, mis-corrects silently; tests verify
// data against ground truth to expose the silent case.
func (c *ECCDIMMController) ReadLine(a dram.WordAddr) (Line, Outcome) {
	c.stats.Reads++
	c.readBuf = c.rank.ReadLineInto(a, c.readBuf)
	res := c.readBuf
	var line Line
	checks := res[DataChips].Data
	var rawLine Line
	for i := 0; i < DataChips; i++ {
		rawLine[i] = res[i].Data
	}
	worst := ecc.StatusOK
	for b := 0; b < 8; b++ {
		cw := ecc.Codeword72{Data: c.gatherBeat(rawLine, b), Check: uint8(checks >> uint(8*b))}
		data, st := c.code.Decode(cw)
		worst = max(worst, st)
		scatterBeat(data, b, &line)
	}
	return line, countBaselineRead(&c.stats, worst)
}

// ChipkillController is conventional Single-Chipkill over an 18-chip gang
// (§II-D2): RS(18,16) per byte lane, correcting one unlocated chip error
// and detecting two. On-Die ECC stays concealed.
type ChipkillController struct {
	rsGang
}

// NewChipkillController wraps an 18-chip rank with XED disabled.
func NewChipkillController(rank *dram.Rank) *ChipkillController {
	c := &ChipkillController{newRSGang("Chipkill", rank, ecc.NewChipkill())}
	rank.SetXEDEnable(false)
	return c
}

// WriteBlock stores 16 data beats and 2 lane-wise RS check beats.
func (c *ChipkillController) WriteBlock(a dram.WordAddr, data Block) { c.write(a, data[:]) }

// ReadBlock decodes lane-wise: one bad chip is corrected, two bad chips
// are (at best) detected.
func (c *ChipkillController) ReadBlock(a dram.WordAddr) (Block, Outcome) {
	var out Block
	outcome := c.readDecoded(a, out[:])
	return out, outcome
}

// DoubleChipkillChips is the 36-chip Double-Chipkill gang (§IX).
const DoubleChipkillChips = 36

// DoubleChipkillDataChips carry data; four chips carry check symbols.
const DoubleChipkillDataChips = 32

// WideBlock is the 36-chip access unit (32 data beats).
type WideBlock = [DoubleChipkillDataChips]uint64

// DoubleChipkillController is conventional Double-Chipkill: RS(36,32) per
// byte lane, correcting any two unlocated chip errors.
type DoubleChipkillController struct {
	rsGang
}

// NewDoubleChipkillController wraps a 36-chip gang with XED disabled.
func NewDoubleChipkillController(rank *dram.Rank) *DoubleChipkillController {
	c := &DoubleChipkillController{newRSGang("Double-Chipkill", rank, ecc.NewDoubleChipkill())}
	rank.SetXEDEnable(false)
	return c
}

// WriteBlock stores 32 data beats and 4 lane-wise check beats.
func (c *DoubleChipkillController) WriteBlock(a dram.WordAddr, data WideBlock) { c.write(a, data[:]) }

// ReadBlock corrects up to two bad chips per lane.
func (c *DoubleChipkillController) ReadBlock(a dram.WordAddr) (WideBlock, Outcome) {
	var out WideBlock
	outcome := c.readDecoded(a, out[:])
	return out, outcome
}
