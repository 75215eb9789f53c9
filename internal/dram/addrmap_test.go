package dram

import (
	"testing"
	"testing/quick"
)

// Compose is the inverse of Decompose, returning the 64-byte-aligned
// physical address for a location.
func (m *AddressMapper) Compose(loc Location) uint64 {
	bank := loc.Addr.Bank
	bank ^= loc.Addr.Row % m.Geom.Banks
	line := uint64(loc.Addr.Row)
	line = line*uint64(m.RanksPerChannel) + uint64(loc.Rank)
	line = line*uint64(m.Geom.Banks) + uint64(bank)
	line = line*uint64(m.Geom.ColsPerRow) + uint64(loc.Addr.Col)
	line = line*uint64(m.Channels) + uint64(loc.Channel)
	return line << 6
}

func TestMapperRoundTripInPackage(t *testing.T) {
	m, err := NewMapper(4, 2, Geometry{Banks: 8, RowsPerBank: 128, ColsPerRow: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bytes() != m.Lines()*64 {
		t.Fatal("bytes/lines inconsistent")
	}
	f := func(raw uint64) bool {
		phys := (raw % m.Lines()) << 6
		return m.Compose(m.Decompose(phys)) == phys
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapperConstructorValidation(t *testing.T) {
	if _, err := NewMapper(0, 2, DefaultGeometry()); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := NewMapper(2, 2, Geometry{}); err == nil {
		t.Fatal("zero geometry accepted")
	}
	// At 3 banks the XOR bank hash maps row 1 col 0 of bank 2 to bank 3.
	if _, err := NewMapper(2, 2, Geometry{Banks: 3, RowsPerBank: 16, ColsPerRow: 8}); err == nil {
		t.Fatal("3 banks accepted")
	}
}

func TestIntersectsAcrossChips(t *testing.T) {
	a := NewRowFault(1, 10, false, 1)
	b := NewBankFault(1, false, 2)
	c := NewBankFault(2, false, 3)
	if !a.Intersects(&b) {
		t.Fatal("row and same-bank fault share lines")
	}
	if a.Intersects(&c) {
		t.Fatal("different banks share nothing")
	}
}

func TestRankAccessors(t *testing.T) {
	r := newTestRank(9)
	if r.Chips() != 9 {
		t.Fatalf("chips = %d", r.Chips())
	}
	if r.Geometry() != testGeom() {
		t.Fatal("geometry accessor wrong")
	}
	if r.Chip(0).Geometry() != testGeom() {
		t.Fatal("chip geometry accessor wrong")
	}
}
