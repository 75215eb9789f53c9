package core

import "xedsim/internal/ecc"

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
