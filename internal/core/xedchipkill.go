package core

import (
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// XED layered on Single-Chipkill hardware (§IX): 18 chips per access (16
// data + 2 Reed-Solomon check chips). Without XED this hardware corrects
// one unlocated chip failure; with XED the catch-words *locate* the faulty
// chips, turning the two check symbols into two erasure corrections —
// Double-Chipkill-level protection with half the chips of real
// Double-Chipkill.

// ChipkillChips is the access width of the single-Chipkill gang.
const ChipkillChips = 18

// ChipkillDataChips carry data; the last two chips carry check symbols.
const ChipkillDataChips = 16

// Block is the 18-chip access unit: 16 data beats of 64 bits (two cache
// lines — the overfetch the paper charges Chipkill for).
type Block = [ChipkillDataChips]uint64

// XEDChipkillController drives an 18-chip gang with per-chip On-Die ECC,
// catch-words enabled, and RS(18,16) across chips on every byte lane.
type XEDChipkillController struct {
	rsGang
	cw catchWords

	// Read-path scratch, reused across calls.
	flaggedBuf  [ChipkillChips]int
	suspectsBuf [ChipkillChips]int
}

// NewXEDChipkillController programs catch-words and XED-Enable on all 18
// chips and prepares the RS(18,16) lane code.
func NewXEDChipkillController(rank *dram.Rank, seed uint64) *XEDChipkillController {
	c := &XEDChipkillController{rsGang: newRSGang("XED-on-Chipkill", rank, ecc.NewXEDChipkill())}
	c.cw = bootCatchWords(rank, seed)
	return c
}

// WriteBlock stores 16 data beats plus two RS check beats. Check beats are
// computed lane-wise: for byte lane b, the 18 lane symbols form one
// RS(18,16) codeword.
func (c *XEDChipkillController) WriteBlock(a dram.WordAddr, data Block) { c.write(a, data[:]) }

// ReadBlock reads and corrects one 18-chip access:
//
//  1. catch-words name up to two erased chips → lane-wise erasure decode;
//  2. more than two catch-words → serial-mode re-read (scaling faults are
//     corrected on-die) and re-evaluate;
//  3. no catch-word but bad syndromes → bounded-distance decode (one
//     unlocated chip error, the classic Chipkill case).
func (c *XEDChipkillController) ReadBlock(a dram.WordAddr) (Block, Outcome) {
	words := c.read(a)
	flagged := c.cw.flagged(c.readBuf, c.flaggedBuf[:0])
	c.stats.CatchWordsSeen += uint64(len(flagged))

	if len(flagged) > c.lanes.rs.R {
		// More catch-words than erasure budget: serial-mode re-read
		// lets each on-die engine repair its own (scaling) fault.
		suspects := c.suspectsBuf[:0]
		for _, i := range flagged {
			rawVal, st := c.rank.Chip(i).ReadRaw(a)
			words[i] = rawVal
			if st == ecc.StatusDetected {
				suspects = append(suspects, i)
			}
		}
		flagged = suspects
		if len(flagged) > c.lanes.rs.R {
			c.stats.DUEs++
			return blockOf(words), OutcomeDUE
		}
		if ok, out := c.decodeLanes(words, flagged); ok {
			c.stats.SerialCorrections++
			return out, OutcomeCorrectedSerial
		}
		c.stats.DUEs++
		return blockOf(words), OutcomeDUE
	}

	if len(flagged) == 0 {
		if c.lanes.valid(words) {
			c.stats.CleanReads++
			return blockOf(words), OutcomeClean
		}
		// Unlocated errors (silent on-die miss): let the RS code both
		// locate and correct — the classic Chipkill budget of one
		// chip with R=2.
		if ok, out := c.decodeLanes(words, nil); ok {
			c.stats.DiagCorrections++
			return out, OutcomeCorrectedDiagnosis
		}
		c.stats.DUEs++
		return blockOf(words), OutcomeDUE
	}

	// 1 or 2 erasures: the §IX-A fast path.
	if ok, out := c.decodeLanes(words, flagged); ok {
		c.stats.ErasureCorrections++
		// §V-D on the Chipkill configuration: an erased data chip whose
		// corrected data equals its catch-word was a collision.
		for _, i := range flagged {
			if i < ChipkillDataChips && c.cw.matches(i, out[i]) {
				c.cw.collision(i, &c.stats)
			}
		}
		return out, OutcomeCorrectedErasure
	}
	// Erasure decode failed — an additional unlocated error beyond the
	// erasures. With one erasure and R=2 there is no slack; DUE.
	c.stats.DUEs++
	return blockOf(words), OutcomeDUE
}

// decodeLanes corrects all 8 byte lanes with the given erasures — nil
// asks the RS code to locate the damage itself, one unlocated chip error
// under R=2. It reports ok=false if any lane is uncorrectable.
func (c *XEDChipkillController) decodeLanes(words []uint64, erasures []int) (bool, Block) {
	var out Block
	ok := c.lanes.decode(words, erasures, out[:]) != ecc.StatusDetected
	return ok, out
}

func blockOf(words []uint64) Block {
	var b Block
	copy(b[:], words)
	return b
}
