package core

import (
	"fmt"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
)

// rsGang is the datapath the Chipkill-family controllers share: a gang of
// K data chips and R check chips accessed together, protected by the
// byte-lane Reed-Solomon code below.
type rsGang struct {
	rank  *dram.Rank
	lanes rsLanes
	stats Stats

	// Read-path scratch, reused across calls so steady-state reads do not
	// allocate.
	readBuf []dram.ReadResult
	words   [DoubleChipkillChips]uint64
}

// newRSGang wraps rank under the lane code rs. It panics, naming the
// scheme, unless the rank has exactly one chip per code symbol.
func newRSGang(scheme string, rank *dram.Rank, rs *ecc.RS) rsGang {
	if n := rs.K + rs.R; rank.Chips() != n {
		panic(fmt.Sprintf("core: %s needs %d chips, got %d", scheme, n, rank.Chips()))
	}
	return rsGang{rank: rank, lanes: newRSLanes(rs)}
}

// Rank exposes the underlying rank.
func (g *rsGang) Rank() *dram.Rank { return g.rank }

// Stats returns a copy of the counters.
func (g *rsGang) Stats() Stats { return g.stats }

// write stores one block: the K data beats go to the data chips and the
// lanes' check beats to the R check chips.
func (g *rsGang) write(a dram.WordAddr, data []uint64) {
	g.stats.Writes++
	var beats [DoubleChipkillChips]uint64
	copy(beats[:], data)
	n := g.rank.Chips()
	g.lanes.encode(beats[:n])
	g.rank.WriteLine(a, beats[:n])
}

// read is one demand read of block a: it counts the read and returns each
// chip's bus word, in gang scratch valid until the next operation.
func (g *rsGang) read(a dram.WordAddr) []uint64 {
	g.stats.Reads++
	g.readBuf = g.rank.ReadLineInto(a, g.readBuf)
	words := g.words[:len(g.readBuf)]
	for i, r := range g.readBuf {
		words[i] = r.Data
	}
	return words
}

// readDecoded is a conventional Chipkill read of block a: the lane code
// locates and corrects unlocated chip errors within its budget, the K data
// beats land in out (which must start zeroed), and the outcome is counted.
func (g *rsGang) readDecoded(a dram.WordAddr, out []uint64) Outcome {
	return countBaselineRead(&g.stats, g.lanes.decode(g.read(a), nil, out))
}

// rsLanes is the byte-lane Reed-Solomon codec of the Chipkill-family
// controllers: byte b of every chip's 64-bit beat forms lane b, one
// RS(K+R, K) codeword across the gang, and an access is eight lanes. The
// first K beats carry data, the last R the lanes' check symbols.
type rsLanes struct {
	rs  *ecc.RS
	dec *ecc.RSDecoder
	// lane is the one codeword buffer encode and the in-place decode
	// share, sized for the widest gang.
	lane [DoubleChipkillChips]uint8
}

func newRSLanes(rs *ecc.RS) rsLanes { return rsLanes{rs: rs, dec: rs.NewDecoder()} }

// load gathers lane b of words into the lane buffer.
func (l *rsLanes) load(words []uint64, b int) []uint8 {
	lane := l.lane[:len(words)]
	for i, w := range words {
		lane[i] = uint8(w >> uint(8*b))
	}
	return lane
}

// encode fills the check beats beats[K:] from the data beats beats[:K];
// the check beats must start zeroed.
func (l *rsLanes) encode(beats []uint64) {
	k := l.rs.K
	for b := 0; b < 8; b++ {
		cw := l.rs.EncodeInto(l.load(beats[:k], b), l.lane[:])
		for j := k; j < len(beats); j++ {
			beats[j] |= uint64(cw[j]) << uint(8*b)
		}
	}
}

// valid reports whether every lane of words is a codeword.
func (l *rsLanes) valid(words []uint64) bool {
	for b := 0; b < 8; b++ {
		if !l.rs.IsValid(l.load(words, b)) {
			return false
		}
	}
	return true
}

// decode corrects every lane of words with the given erased chips (nil:
// bounded-distance decoding of unlocated errors) and ORs the lanes' data
// symbols into out, which must start zeroed. A lane the decoder rejects
// contributes its symbols as read. The result is the worst lane verdict
// (DecodeStatus values order by severity): StatusDetected if any lane
// failed, else StatusCorrected if any lane was repaired, else StatusOK.
func (l *rsLanes) decode(words []uint64, erasures []int, out []uint64) ecc.DecodeStatus {
	worst := ecc.StatusOK
	for b := 0; b < 8; b++ {
		lane := l.load(words, b)
		worst = max(worst, l.dec.DecodeErasures(lane, erasures))
		for i := range out {
			out[i] |= uint64(lane[i]) << uint(8*b)
		}
	}
	return worst
}

// countBaselineRead maps a baseline controller's worst decode verdict over
// an access to the read outcome, and counts it.
func countBaselineRead(s *Stats, st ecc.DecodeStatus) Outcome {
	switch st {
	case ecc.StatusOK:
		s.CleanReads++
		return OutcomeClean
	case ecc.StatusCorrected:
		s.ErasureCorrections++
		return OutcomeCorrectedErasure
	default:
		s.DUEs++
		return OutcomeDUE
	}
}
