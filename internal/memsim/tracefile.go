package memsim

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xedsim/internal/dram"
)

// USIMM trace-file support. The Memory Scheduling Championship distributed
// its workloads in USIMM's text format, one memory operation per line:
//
//	<non-memory-instruction gap> R <hex line address>
//	<non-memory-instruction gap> W <hex line address>
//
// (USIMM also carries an instruction pointer on reads; a trailing field is
// accepted and ignored.) Users holding real MSC/Pinpoints traces can feed
// them to the simulator directly; the writer emits the same format so
// synthetic workloads can be exported, inspected and replayed bit-for-bit.

// TraceOpRecord is one parsed trace line.
type TraceOpRecord struct {
	Gap     int
	IsWrite bool
	// LineAddr is the 64-byte-aligned physical address >> 6.
	LineAddr uint64
}

// ParseTraceLine parses one USIMM-format line.
func ParseTraceLine(line string) (TraceOpRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return TraceOpRecord{}, fmt.Errorf("memsim: trace line %q: want >= 3 fields", line)
	}
	gap, err := strconv.Atoi(fields[0])
	if err != nil || gap < 0 {
		return TraceOpRecord{}, fmt.Errorf("memsim: trace line %q: bad gap", line)
	}
	var isWrite bool
	switch fields[1] {
	case "R", "r":
		isWrite = false
	case "W", "w":
		isWrite = true
	default:
		return TraceOpRecord{}, fmt.Errorf("memsim: trace line %q: op %q", line, fields[1])
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
	if err != nil {
		return TraceOpRecord{}, fmt.Errorf("memsim: trace line %q: bad address", line)
	}
	return TraceOpRecord{Gap: gap, IsWrite: isWrite, LineAddr: addr}, nil
}

// ReadTraceFile parses a whole USIMM trace. Blank lines and '#' comments
// are skipped.
func ReadTraceFile(r io.Reader) ([]TraceOpRecord, error) {
	var ops []TraceOpRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := ParseTraceLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// WriteTraceFile emits ops in USIMM format.
func WriteTraceFile(w io.Writer, ops []TraceOpRecord) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		kind := "R"
		if op.IsWrite {
			kind = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d %s 0x%x\n", op.Gap, kind, op.LineAddr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportTrace samples n operations from the named synthetic workload so a
// generated stream can be inspected or replayed elsewhere.
func ExportTrace(w Workload, geom systemGeom, seed uint64, n int) []TraceOpRecord {
	tg := newTraceGen(w, geom, seed)
	mapper := dram.MustNewMapper(geom.channels, geom.ranks,
		dram.Geometry{Banks: geom.banks, RowsPerBank: geom.rows, ColsPerRow: geom.cols})
	ops := make([]TraceOpRecord, 0, n)
	for i := 0; i < n; i++ {
		gap, op := tg.next()
		phys := mapper.Compose(dram.Location{
			Channel: op.channel,
			Rank:    op.rank,
			Addr:    dram.WordAddr{Bank: op.bank, Row: op.row, Col: op.col},
		})
		ops = append(ops, TraceOpRecord{Gap: gap, IsWrite: op.isWrite, LineAddr: phys >> 6})
	}
	return ops
}

// DefaultTraceGeom matches the Table V system's address space.
func DefaultTraceGeom() systemGeom {
	return systemGeom{channels: 4, ranks: 2, banks: 8, rows: 32768, cols: 128}
}

// fileTrace adapts a recorded operation stream to the core model's trace
// interface, looping when exhausted (rate mode runs fixed instruction
// counts, not fixed trace lengths). Physical locations fold into the
// active scheme's effective channel/rank space.
type fileTrace struct {
	ops         []TraceOpRecord
	pos         int
	mapper      *dram.AddressMapper
	channelGang int // scheme.ChannelsPerAccess
	rankGang    int // scheme.RanksPerAccess
}

func (f *fileTrace) next() (int, traceOp) {
	rec := f.ops[f.pos]
	f.pos = (f.pos + 1) % len(f.ops)
	loc := f.mapper.Decompose((rec.LineAddr << 6) % f.mapper.Bytes())
	return rec.Gap, traceOp{
		isWrite: rec.IsWrite,
		channel: loc.Channel / f.channelGang,
		rank:    loc.Rank / f.rankGang,
		bank:    loc.Addr.Bank,
		row:     loc.Addr.Row,
		col:     loc.Addr.Col,
	}
}
