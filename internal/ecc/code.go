// Package ecc implements the error-correcting and error-detecting codes the
// XED paper builds on: (72,64) on-die codes, RAID-3 XOR parity across chips
// (§V-C), and Reed-Solomon symbol codes over GF(2⁸) for Chipkill and
// Double-Chipkill (§II-D2, §IX), including erasure decoding.
//
// Every (72,64) code is one codec, LinearCode64, compiled from the code's
// 8×72 parity-check matrix: the Hamming SECDED baseline, the CRC8-ATM code
// recommended for On-Die ECC (§V-E), the Hsiao code commercial DIMMs ship,
// and random SECDED codes standing in for an unknown vendor code.
//
// All codes operate on the granularities the paper uses: 64 data bits plus 8
// check bits per on-die word, and one 8-bit symbol per chip per beat for the
// symbol codes.
package ecc

import "fmt"

// DecodeStatus classifies the outcome of decoding one codeword.
type DecodeStatus int

const (
	// StatusOK means the codeword was valid; data is returned unchanged.
	StatusOK DecodeStatus = iota
	// StatusCorrected means an error was detected and corrected; the
	// returned data is the corrected value.
	StatusCorrected
	// StatusDetected means an uncorrectable error was detected; the
	// returned data must not be trusted.
	StatusDetected
)

// String implements fmt.Stringer.
func (s DecodeStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCorrected:
		return "corrected"
	case StatusDetected:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("DecodeStatus(%d)", int(s))
	}
}

// Codeword72 is one 72-bit on-die codeword: 64 data bits and 8 check bits.
// This is the unit each DRAM chip protects internally (§II-B: "each 64-bit
// data within the chip is protected by an 8-bit SECDED code").
type Codeword72 struct {
	Data  uint64
	Check uint8
}

// FlipBit returns a copy of the codeword with bit i inverted: bits 0..63
// address Data (LSB first) and bits 64..71 address Check.
func (c Codeword72) FlipBit(i int) Codeword72 {
	if i < 64 {
		c.Data ^= 1 << uint(i)
	} else {
		c.Check ^= 1 << uint(i-64)
	}
	return c
}

// FlipMask returns a copy of the codeword with the given 72-bit error
// pattern applied; dataMask covers bits 0..63 and checkMask bits 64..71.
func (c Codeword72) FlipMask(dataMask uint64, checkMask uint8) Codeword72 {
	c.Data ^= dataMask
	c.Check ^= checkMask
	return c
}

// Code64 is a (72,64) systematic code: 64 data bits in, 8 check bits out.
// *LinearCode64 is its one implementation; chips take the interface so
// tests can hand them a deliberately broken corrector.
type Code64 interface {
	// Name identifies the code in tables and logs, e.g. "(72,64) Hamming".
	Name() string
	// Encode computes the check bits for data.
	Encode(data uint64) Codeword72
	// Decode validates cw, correcting a single-bit error if possible.
	// It returns the (possibly corrected) data word and the outcome.
	// A mis-correction — a multi-bit error that aliases to a correctable
	// syndrome — is reported as StatusCorrected with wrong data; this is
	// exactly the hazard the paper quantifies in Table II.
	Decode(cw Codeword72) (uint64, DecodeStatus)
	// IsValid reports whether cw is a valid codeword (zero syndrome).
	// XED uses this as the error-detection predicate: any invalid
	// codeword makes the chip emit a catch-word (§V-B).
	IsValid(cw Codeword72) bool
}
