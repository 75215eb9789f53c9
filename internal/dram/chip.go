package dram

import (
	"fmt"

	"xedsim/internal/ecc"
)

// Chip is a functional model of one DRAM device with On-Die ECC. Storage is
// sparse: unwritten words read as zero. Every stored word carries the 8
// check bits of the configured on-die code, and reads pass through the
// fault list, the ECC engine and the DC-Mux exactly as Figure 3 of the
// paper describes.
//
// Chip is not safe for concurrent use; the memory controller serialises
// accesses, as real command buses do.
type Chip struct {
	geom Geometry
	code ecc.Code64

	// Mode registers, written over the MRS interface (§V-A).
	xedEnable bool
	catchWord uint64

	store  map[uint64]storedWord
	faults []Fault

	// Lazy birthtime scaling faults (see scaling.go).
	scaling          ScalingProfile
	scalingThreshold uint64

	// writeClock advances on every write; transient faults only corrupt
	// words whose last write predates the fault's injection epoch.
	writeClock uint64

	// silentCorrupt counts reads whose corruption produced a *valid*
	// codeword (see SilentCorrupt).
	silentCorrupt uint64
}

type storedWord struct {
	cw    ecc.Codeword72
	epoch uint64
}

// NewChip builds a chip with the given geometry and on-die code. The paper
// recommends CRC8-ATM (§V-E); pass ecc.NewCRC8ATM() for the recommended
// configuration or ecc.NewHamming() for the conventional baseline.
func NewChip(geom Geometry, code ecc.Code64) *Chip {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	return &Chip{geom: geom, code: code, store: make(map[uint64]storedWord)}
}

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geom }

// SilentCorrupt returns how many reads found corruption that aliased onto
// a valid codeword, which the on-die engine cannot see: the only way a
// chip can hand the controller wrong data without flagging it.
func (c *Chip) SilentCorrupt() uint64 { return c.silentCorrupt }

// SetXEDEnable sets the XED-Enable mode register over the MRS interface.
// With XED disabled the chip behaves as a conventional On-Die-ECC device:
// it corrects what it can and never reveals detection information (§V-A).
func (c *Chip) SetXEDEnable(on bool) {
	var v uint16
	if on {
		v = 1
	}
	c.MRSWrite(MRXEDEnable, v)
}

// XEDEnabled reports the XED-Enable register.
func (c *Chip) XEDEnabled() bool { return c.xedEnable }

// SetCatchWord programs the Catch-Word Register (CWR) as four 16-bit MRS
// writes, the way a real controller would deliver it.
func (c *Chip) SetCatchWord(cw uint64) {
	for i := 0; i < 4; i++ {
		c.MRSWrite(MRCatchWord0+ModeRegister(i), uint16(cw>>(uint(i)*16)))
	}
}

// CatchWord returns the CWR contents.
func (c *Chip) CatchWord() uint64 { return c.catchWord }

// InjectFault adds a fault to the chip. The fault's Epoch is stamped with
// the current write clock so earlier writes are corrupted but later
// rewrites clear transient damage.
func (c *Chip) InjectFault(f Fault) {
	f.Epoch = c.writeClock
	c.faults = append(c.faults, f)
}

// ClearFaults removes every fault (used by repair/test harnesses).
func (c *Chip) ClearFaults() { c.faults = nil }

// ClearTransientFaults removes transient faults only, modelling a scrub
// pass that rewrites corrected data.
func (c *Chip) ClearTransientFaults() {
	kept := c.faults[:0]
	for _, f := range c.faults {
		if !f.Transient {
			kept = append(kept, f)
		}
	}
	// Zero the dropped tail: the truncated values stay live in the backing
	// array otherwise, where they pin memory and can resurface through
	// slices aliased before the scrub.
	clear(c.faults[len(kept):])
	c.faults = kept
}

// Faults returns a copy of the active fault list.
func (c *Chip) Faults() []Fault {
	out := make([]Fault, len(c.faults))
	copy(out, c.faults)
	return out
}

// Write stores a 64-bit word; the on-die engine encodes the check bits.
func (c *Chip) Write(a WordAddr, data uint64) {
	if !c.geom.Contains(a) {
		panic(fmt.Sprintf("dram: write outside geometry: %v", a))
	}
	c.writeClock++
	c.store[c.geom.index(a)] = storedWord{cw: c.code.Encode(data), epoch: c.writeClock}
}

// ReadResult describes what the chip drove onto the bus for one word.
type ReadResult struct {
	// Data is the 64-bit value transferred (possibly the catch-word).
	Data uint64
	// IsCatchWord is true when the DC-Mux selected the CWR. The memory
	// controller cannot see this flag on a real bus — it must compare
	// Data against its CWR copy — but tests use it as ground truth.
	IsCatchWord bool
	// Status is the on-die engine's decode outcome. It never reaches
	// the data bus; an ALERT_n controller sees it as the chip's pin, and
	// tests use it as ground truth.
	Status ecc.DecodeStatus
}

// Read fetches a word through the fault model, the on-die ECC engine and
// the DC-Mux.
func (c *Chip) Read(a WordAddr) ReadResult {
	if !c.geom.Contains(a) {
		panic(fmt.Sprintf("dram: read outside geometry: %v", a))
	}
	sw, ok := c.store[c.geom.index(a)]
	if !ok {
		sw = storedWord{cw: c.code.Encode(0)}
	}
	cw := sw.cw
	corrupted := false
	cw, scaled := c.applyScaling(a, cw)
	corrupted = corrupted || scaled
	for i := range c.faults {
		f := &c.faults[i]
		if !f.Covers(a) {
			continue
		}
		if f.Transient && sw.epoch > f.Epoch {
			continue // rewritten since the transient upset
		}
		cw = f.Corrupt(c.geom, a, cw)
		corrupted = true
	}
	if c.code.IsValid(cw) {
		if corrupted {
			// Corruption aliased onto a valid codeword: the engine
			// cannot know. If it decodes to different data this is
			// silent data corruption at the chip level.
			c.silentCorrupt++
		}
		return ReadResult{Data: cw.Data, Status: ecc.StatusOK}
	}
	// Invalid codeword: the engine detected an error.
	data, st := c.code.Decode(cw)
	if c.xedEnable {
		// DC-Mux selects the catch-word on detection OR correction
		// (§V-A: "if the On-Die ECC detects or corrects an error, the
		// DC-Mux selects the Catch-Word").
		return ReadResult{Data: c.catchWord, IsCatchWord: true, Status: st}
	}
	// Conventional mode: ship the corrected value if correctable, the
	// raw (wrong) data otherwise; the controller learns nothing.
	return ReadResult{Data: data, Status: st}
}

// ReadRaw returns the value the chip would transfer with XED temporarily
// disabled — the controller's serial-mode read for multi-catch-word
// correction (§VII-B) uses this via the MRS dance. Its fault behaviour
// matches Read with xedEnable=false.
func (c *Chip) ReadRaw(a WordAddr) (uint64, ecc.DecodeStatus) {
	saved := c.xedEnable
	c.xedEnable = false
	r := c.Read(a)
	c.xedEnable = saved
	return r.Data, r.Status
}
