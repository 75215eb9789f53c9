package dram

import (
	"testing"

	"xedsim/internal/ecc"
)

// ecc72 encodes a value with the test code so fault tests can build real
// codewords without importing the chip internals.
func ecc72(v uint64) ecc.Codeword72 { return ecc.NewCRC8ATM().Encode(v) }

func newTestRank(n int) *Rank {
	return MustNewRank(n, testGeom(), func() ecc.Code64 { return ecc.NewCRC8ATM() })
}

func TestRankLineRoundTrip(t *testing.T) {
	r := newTestRank(9)
	a := WordAddr{Bank: 1, Row: 2, Col: 3}
	beats := make([]uint64, 9)
	for i := range beats {
		beats[i] = uint64(i) * 0x1111111111111111
	}
	r.WriteLine(a, beats)
	got := r.ReadLineInto(a, nil)
	for i, rr := range got {
		if rr.Data != beats[i] || rr.IsCatchWord {
			t.Fatalf("chip %d: %+v, want %#x", i, rr, beats[i])
		}
	}
}

func TestRankCatchWordConfiguration(t *testing.T) {
	r := newTestRank(9)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = uint64(i+1) * 0x0101010101010101
	}
	for i, w := range words {
		r.Chip(i).SetCatchWord(w)
	}
	r.SetXEDEnable(true)
	for i := 0; i < 9; i++ {
		if r.Chip(i).CatchWord() != words[i] {
			t.Fatalf("chip %d catch-word mismatch", i)
		}
		if !r.Chip(i).XEDEnabled() {
			t.Fatalf("chip %d XED not enabled", i)
		}
	}
}

func TestRankFailedChipSendsItsCatchWord(t *testing.T) {
	r := newTestRank(9)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = 0xc0ffee00 + uint64(i)
	}
	for i, w := range words {
		r.Chip(i).SetCatchWord(w)
	}
	r.SetXEDEnable(true)
	a := WordAddr{Bank: 0, Row: 10, Col: 4}
	r.WriteLine(a, make([]uint64, 9))
	r.InjectChipFailure(3, NewChipFault(false, 77))
	res := r.ReadLineInto(a, nil)
	for i, rr := range res {
		if i == 3 {
			if !rr.IsCatchWord || rr.Data != words[3] {
				t.Fatalf("failed chip 3 returned %+v", rr)
			}
			continue
		}
		if rr.IsCatchWord || rr.Data != 0 {
			t.Fatalf("healthy chip %d returned %+v", i, rr)
		}
	}
}

func TestRankSizeMismatchPanics(t *testing.T) {
	r := newTestRank(9)
	assertPanics(t, "write beats", func() { r.WriteLine(WordAddr{}, make([]uint64, 8)) })
	assertPanics(t, "empty rank", func() { newTestRank(0) })
}
