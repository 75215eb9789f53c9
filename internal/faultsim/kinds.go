package faultsim

import (
	"math"
	"reflect"

	"xedsim/internal/dram"
)

// FailKind distinguishes the two ways a system "fails" in the paper's
// classification (§VIII): a Detected Uncorrectable Error halts or rolls
// back the machine; Silent Data Corruption — an undetected or
// mis-corrected error — poisons results. Both count as failed systems for
// the probability curves, but Table IV separates them.
type FailKind int

const (
	// FailNone: the system survived.
	FailNone FailKind = iota
	// FailDUE: detected, uncorrectable.
	FailDUE
	// FailSDC: silent or mis-corrected.
	FailSDC
)

// String implements fmt.Stringer.
func (k FailKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailDUE:
		return "DUE"
	case FailSDC:
		return "SDC"
	default:
		return "FailKind(?)"
	}
}

// Mis-correction probabilities of the bounded-distance decoders when an
// error beyond their budget arrives, estimated from the codes' syndrome
// geometry:
//
//   - DIMM-level (72,64) SECDED against a chip's worth of multi-bit
//     damage: the syndrome aliases one of the 72 single-bit columns for
//     roughly 72/256 of odd-weight patterns — about a quarter of failures
//     silently mis-correct, the rest raise a DUE.
//   - RS(18,16) against a double-symbol error: single-error syndromes
//     occupy 18x255 of the 2^16 syndrome space (~7%).
//   - RS(36,32) against a triple-symbol error: correctable syndromes
//     occupy ~1% of the 2^32 space.
//
// TestRSMiscorrectionConstants holds the two RS constants within 25 % of
// the rate at which the internal/ecc decoders mis-correct two- and
// three-symbol errors (0.0627 and 0.00812).
const (
	secdedMiscorrectProb   = 0.25
	chipkillMiscorrectProb = 0.07
	dblCKMiscorrectProb    = 0.01
)

// kindFunc decides the failure kind given the records involved. silent
// counts the silent (no catch-word) members of the failing set; total the
// distinct chips; h is a deterministic per-event hash in [0,1) for
// sampling mis-correction without consuming shared RNG state.
type kindFunc func(silent, total int, h float64) FailKind

func nonECCKind(int, int, float64) FailKind { return FailSDC }

func secdedKind(_, _ int, h float64) FailKind {
	if h < secdedMiscorrectProb {
		return FailSDC
	}
	return FailDUE
}

// xedKind: every XED failure is detected — either two catch-words with one
// parity (serial mode reports uncorrectable) or a parity mismatch whose
// diagnosis fails. The only silent path is Inter-Line mis-identification
// at ~1e-12 (Table IV), far below Monte-Carlo resolution.
func xedKind(int, int, float64) FailKind { return FailDUE }

func chipkillKind(_, _ int, h float64) FailKind {
	if h < chipkillMiscorrectProb {
		return FailSDC
	}
	return FailDUE
}

func dblChipkillKind(_, _ int, h float64) FailKind {
	if h < dblCKMiscorrectProb {
		return FailSDC
	}
	return FailDUE
}

// xedChipkillKind: with both erasures consumed by catch-words, a silent
// third error leaves no residual redundancy — the erasure decode
// "verifies" with wrong data (SDC). All-flagged overloads are detected.
func xedChipkillKind(silent, total int, h float64) FailKind {
	if silent > 0 && total > silent {
		return FailSDC
	}
	if h < dblCKMiscorrectProb {
		return FailSDC
	}
	return FailDUE
}

// hashFreeKind reports whether k is one of the stock constant kind
// functions — those that ignore every argument, hash included — and the
// constant it returns. Identity is decided by code pointer, never by
// probing: a thresholded kind could answer identically at any finite set
// of probe hashes and still not be constant. Unknown kind functions
// simply keep the exact slow path.
func hashFreeKind(k kindFunc) (FailKind, bool) {
	switch reflect.ValueOf(k).Pointer() {
	case reflect.ValueOf(nonECCKind).Pointer():
		return FailSDC, true
	case reflect.ValueOf(xedKind).Pointer():
		return FailDUE, true
	}
	return FailNone, false
}

// eventHash derives a deterministic uniform [0,1) from a fault record so
// mis-correction sampling is reproducible and independent of evaluation
// order.
func eventHash(r *FaultRecord) float64 {
	x := uint64(r.Channel)<<40 ^ uint64(r.Rank)<<32 ^ uint64(r.Chip)<<24 ^
		math.Float64bits(r.Start) ^ uint64(r.Gran)<<16
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// isSilentRecord reports whether the record contributes no catch-word.
func isSilentRecord(r *FaultRecord) bool {
	return r.Silent && r.Gran == dram.GranWord
}
