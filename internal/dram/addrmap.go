package dram

import "fmt"

// Physical-address mapping: how a flat byte address spreads across
// channels, ranks, banks, rows and columns. The paper's Table V system
// interleaves consecutive cache lines across channels first (maximum
// bus-level parallelism for streams), then columns, then banks XOR-hashed
// with row bits (reducing pathological row-conflict strides), then ranks,
// then rows — the common open-page server mapping USIMM ships with.

// AddressMapper decomposes 64-byte-aligned physical addresses. The bank
// index is XOR-hashed with the low row bits, the standard
// permutation-based page interleaving.
type AddressMapper struct {
	Channels        int
	RanksPerChannel int
	Geom            Geometry
}

// Location is a fully decomposed line address.
type Location struct {
	Channel, Rank int
	Addr          WordAddr
}

// NewMapper builds the default mapping for the given fleet shape. It
// rejects non-positive channel/rank counts, invalid geometries and a bank
// count that is not a power of two: the XOR bank hash stays inside
// [0, Banks) only for a power of two.
func NewMapper(channels, ranksPerChannel int, geom Geometry) (*AddressMapper, error) {
	if channels <= 0 || ranksPerChannel <= 0 {
		return nil, fmt.Errorf("dram: mapper needs positive channel/rank counts, got %d/%d",
			channels, ranksPerChannel)
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if geom.Banks&(geom.Banks-1) != 0 {
		return nil, fmt.Errorf("dram: mapper needs a power-of-two bank count for its XOR bank hash, got %d", geom.Banks)
	}
	return &AddressMapper{
		Channels:        channels,
		RanksPerChannel: ranksPerChannel,
		Geom:            geom,
	}, nil
}

// Lines returns the number of cache lines the fleet stores.
func (m *AddressMapper) Lines() uint64 {
	return uint64(m.Channels) * uint64(m.RanksPerChannel) * uint64(m.Geom.Words())
}

// Bytes returns the fleet's data capacity in bytes (64B per line, data
// chips only).
func (m *AddressMapper) Bytes() uint64 { return m.Lines() * 64 }

// Decompose maps a physical byte address to its DRAM location. The address
// must be within the fleet's capacity; the low 6 bits (line offset) are
// ignored.
func (m *AddressMapper) Decompose(phys uint64) Location {
	line := phys >> 6
	if line >= m.Lines() {
		panic(fmt.Sprintf("dram: address %#x beyond capacity %#x", phys, m.Bytes()))
	}
	var loc Location
	// channel : col : bank : rank : row  (low to high)
	loc.Channel = int(line % uint64(m.Channels))
	line /= uint64(m.Channels)
	loc.Addr.Col = int(line % uint64(m.Geom.ColsPerRow))
	line /= uint64(m.Geom.ColsPerRow)
	loc.Addr.Bank = int(line % uint64(m.Geom.Banks))
	line /= uint64(m.Geom.Banks)
	loc.Rank = int(line % uint64(m.RanksPerChannel))
	line /= uint64(m.RanksPerChannel)
	loc.Addr.Row = int(line)
	loc.Addr.Bank ^= loc.Addr.Row % m.Geom.Banks
	return loc
}
