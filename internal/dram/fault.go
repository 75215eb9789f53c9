package dram

import (
	"fmt"

	"xedsim/internal/ecc"
)

// Granularity enumerates the DRAM failure modes of the paper's fault model
// (§II-C, Table I). Each granularity corresponds to a set of 64-bit words
// inside one chip (MultiRank faults span the same chip position in several
// ranks and are expanded by the caller into per-chip records).
type Granularity int

const (
	// GranBit is a single-bit fault in one word.
	GranBit Granularity = iota
	// GranWord is a multi-bit fault confined to one 64-bit word.
	GranWord
	// GranColumn covers one column (the same word of every row in a bank).
	GranColumn
	// GranRow covers every word of one row.
	GranRow
	// GranBank covers an entire bank.
	GranBank
	// GranMultiBank covers several banks of one chip.
	GranMultiBank
	// GranChip covers the whole chip. Multi-rank faults are modelled as
	// chip faults replicated at the same position of each affected rank.
	GranChip
	// NumGranularities counts the distinct granularities; valid values
	// are 0 <= g < NumGranularities. Exported so scheme engines can size
	// per-granularity lookup tables.
	NumGranularities
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranBit:
		return "bit"
	case GranWord:
		return "word"
	case GranColumn:
		return "column"
	case GranRow:
		return "row"
	case GranBank:
		return "bank"
	case GranMultiBank:
		return "multi-bank"
	case GranChip:
		return "chip"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Fault is one fault inside one chip, expressed as an address range:
// specific coordinates match one value, wildcard (-1) coordinates match
// all. This is the FaultSim-style symbolic representation; the functional
// chip model also evaluates it directly when corrupting reads.
type Fault struct {
	Gran      Granularity
	Transient bool
	// Bank/Row/Col are the matched coordinates; -1 is a wildcard.
	Bank, Row, Col int
	// BankMask restricts a GranMultiBank fault to specific banks
	// (bit b set = bank b affected). Ignored for other granularities.
	BankMask uint64
	// BitMask is the corrupted-bit pattern for GranBit and GranWord
	// faults. Larger-granularity faults derive a per-word pattern from
	// Seed instead.
	BitMask uint64
	// CheckMask corrupts the on-die check bits alongside BitMask.
	CheckMask uint8
	// Seed makes the per-word corruption of large faults deterministic.
	Seed uint64
	// Epoch is the chip write-clock value at injection time; transient
	// faults do not corrupt words rewritten after injection.
	Epoch uint64
}

// Covers reports whether the fault affects the given word.
func (f *Fault) Covers(a WordAddr) bool {
	switch f.Gran {
	case GranChip:
		return true
	case GranMultiBank:
		return f.BankMask>>uint(a.Bank)&1 == 1
	}
	if f.Bank != -1 && f.Bank != a.Bank {
		return false
	}
	if f.Row != -1 && f.Row != a.Row {
		return false
	}
	if f.Col != -1 && f.Col != a.Col {
		return false
	}
	return true
}

// mix is a splitmix64-style hash used to derive deterministic per-word
// corruption patterns for large-granularity faults.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Corrupt applies the fault's corruption to a stored codeword. For bit and
// word faults the explicit masks are used; for larger faults the pattern is
// a deterministic hash of (Seed, address), so repeated reads of the same
// word see the same stuck bits — the behaviour Intra-Line Fault Diagnosis
// (§VI-B) relies on.
func (f *Fault) Corrupt(g Geometry, a WordAddr, cw ecc.Codeword72) ecc.Codeword72 {
	switch f.Gran {
	case GranBit, GranWord:
		return cw.FlipMask(f.BitMask, f.CheckMask)
	default:
		h := mix(f.Seed ^ g.index(a)*0x9e3779b97f4a7c15)
		// Corrupt a dense random pattern across data and check bits:
		// the signature of a broken row/column/bank is wide multi-bit
		// damage, which the on-die code detects with probability
		// determined by its real syndrome behaviour.
		dataMask := h
		checkMask := uint8(mix(h) & 0xff)
		if dataMask == 0 && checkMask == 0 {
			dataMask = 1
		}
		return cw.FlipMask(dataMask, checkMask)
	}
}

// Intersects reports whether two faults in the *same chip* share at least
// one word address, the FaultSim overlap test. Chips of a rank share the
// bank/row/column address, so the same test tells whether faults in two
// chips of a rank damage a common cache line.
func (f *Fault) Intersects(o *Fault) bool {
	matchDim := func(a, b int) bool { return a == -1 || b == -1 || a == b }
	bankOverlap := func() bool {
		fa, fo := f.bankSet(), o.bankSet()
		return fa&fo != 0
	}
	if !bankOverlap() {
		return false
	}
	return matchDim(f.Row, o.Row) && matchDim(f.Col, o.Col)
}

// bankSet returns the fault's affected banks as a bitmask over 64 banks.
func (f *Fault) bankSet() uint64 {
	switch f.Gran {
	case GranChip:
		return ^uint64(0)
	case GranMultiBank:
		return f.BankMask
	}
	if f.Bank == -1 {
		return ^uint64(0)
	}
	return 1 << uint(f.Bank)
}

// NewBitFault builds a single-bit fault at the given address. bit selects
// which of the 72 codeword bits is damaged (0..63 data, 64..71 check).
func NewBitFault(a WordAddr, bit int, transient bool) Fault {
	f := Fault{Gran: GranBit, Transient: transient, Bank: a.Bank, Row: a.Row, Col: a.Col}
	if bit < 64 {
		f.BitMask = 1 << uint(bit)
	} else {
		f.CheckMask = 1 << uint(bit-64)
	}
	return f
}

// NewWordFault builds a multi-bit fault confined to one word. The mask pair
// must not be all zero.
func NewWordFault(a WordAddr, dataMask uint64, checkMask uint8, transient bool) Fault {
	if dataMask == 0 && checkMask == 0 {
		panic("dram: word fault with empty mask")
	}
	return Fault{Gran: GranWord, Transient: transient, Bank: a.Bank, Row: a.Row, Col: a.Col,
		BitMask: dataMask, CheckMask: checkMask}
}

// NewColumnFault builds a column fault: column col of every row in bank.
func NewColumnFault(bank, col int, transient bool, seed uint64) Fault {
	return Fault{Gran: GranColumn, Transient: transient, Bank: bank, Row: -1, Col: col, Seed: seed}
}

// NewRowFault builds a row fault covering all columns of one row.
func NewRowFault(bank, row int, transient bool, seed uint64) Fault {
	return Fault{Gran: GranRow, Transient: transient, Bank: bank, Row: row, Col: -1, Seed: seed}
}

// NewBankFault builds a whole-bank fault.
func NewBankFault(bank int, transient bool, seed uint64) Fault {
	return Fault{Gran: GranBank, Transient: transient, Bank: bank, Row: -1, Col: -1, Seed: seed}
}

// NewMultiBankFault builds a fault over the banks set in bankMask.
func NewMultiBankFault(bankMask uint64, transient bool, seed uint64) Fault {
	if bankMask == 0 {
		panic("dram: multi-bank fault with empty bank mask")
	}
	return Fault{Gran: GranMultiBank, Transient: transient, Bank: -1, Row: -1, Col: -1,
		BankMask: bankMask, Seed: seed}
}

// NewChipFault builds a whole-chip fault.
func NewChipFault(transient bool, seed uint64) Fault {
	return Fault{Gran: GranChip, Transient: transient, Bank: -1, Row: -1, Col: -1, Seed: seed}
}
