package ecc

import (
	"bytes"
	"testing"

	"xedsim/internal/simrand"
)

// corrupt flips distinct random symbols, returning their indices.
func corrupt(rng *simrand.Source, cw []uint8, count int) []int {
	hit := make([]int, 0, count)
	for len(hit) < count {
		pos := rng.Intn(len(cw))
		dup := false
		for _, h := range hit {
			if h == pos {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cw[pos] ^= uint8(rng.Intn(255) + 1)
		hit = append(hit, pos)
	}
	return hit
}

// TestRSDecoderReuseMatchesFresh drives one long-lived decoder through
// thousands of random error/erasure patterns and checks every outcome
// (status and corrected word) against a fresh decoder on a fresh copy —
// stale scratch from a previous decode must never leak into the next.
func TestRSDecoderReuseMatchesFresh(t *testing.T) {
	for _, code := range []struct{ k, r int }{{16, 2}, {32, 4}} {
		rs := NewRS(code.k, code.r)
		warm := rs.NewDecoder()
		rng := simrand.New(0xdec0de)
		for trial := 0; trial < 4000; trial++ {
			cw := rs.Encode(randomData(rng, rs.K))
			nErr := rng.Intn(4)
			nEra := rng.Intn(4)
			corrupt(rng, cw, nErr)
			var erasures []int
			if nEra > 0 {
				erasures = corrupt(rng, cw, nEra)
			}

			inPlace := append([]uint8(nil), cw...)
			gotSt := warm.DecodeErasures(inPlace, erasures)
			wantOut, wantSt := rs.DecodeErasures(cw, erasures)
			if gotSt != wantSt {
				t.Fatalf("RS(%d,%d) trial %d (%d errors, %d erasures): warm decoder status %v, fresh %v",
					rs.K+rs.R, rs.K, trial, nErr, nEra, gotSt, wantSt)
			}
			if !bytes.Equal(inPlace, wantOut) {
				t.Fatalf("RS(%d,%d) trial %d: warm decoder output diverged from fresh decode", rs.K+rs.R, rs.K, trial)
			}
		}
	}
}

// TestRSDecoderDetectedLeavesWordUntouched checks the in-place contract:
// on StatusDetected the received word must come back bit-identical.
func TestRSDecoderDetectedLeavesWordUntouched(t *testing.T) {
	rs := NewRS(16, 2)
	dec := rs.NewDecoder()
	rng := simrand.New(0xbad)
	detected := 0
	for trial := 0; trial < 2000; trial++ {
		cw := rs.Encode(randomData(rng, rs.K))
		corrupt(rng, cw, 2+rng.Intn(3)) // beyond the 1-error budget
		before := append([]uint8(nil), cw...)
		if st := dec.DecodeErasures(cw, nil); st == StatusDetected {
			detected++
			if !bytes.Equal(cw, before) {
				t.Fatalf("trial %d: StatusDetected but codeword was modified", trial)
			}
		}
	}
	if detected == 0 {
		t.Fatal("no multi-error pattern was detected; test is vacuous")
	}
}

// TestEncodeIntoMatchesEncode covers buffer reuse and the documented
// data-aliasing-cw case.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	rs := NewRS(32, 4)
	rng := simrand.New(0xe7c)
	buf := make([]uint8, 0, rs.K+rs.R)
	for trial := 0; trial < 500; trial++ {
		data := randomData(rng, rs.K)
		want := rs.Encode(data)
		got := rs.EncodeInto(data, buf[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: EncodeInto diverged from Encode", trial)
		}
		// Aliased: data already sits in cw[:K].
		aliased := rs.EncodeInto(got[:rs.K], got)
		if !bytes.Equal(aliased, want) {
			t.Fatalf("trial %d: EncodeInto with data aliasing cw[:K] diverged", trial)
		}
		buf = got
	}
}

func TestSyndromesIntoMatchesSyndromes(t *testing.T) {
	rs := NewRS(16, 2)
	rng := simrand.New(0x51d)
	buf := make([]uint8, 0, rs.R)
	for trial := 0; trial < 500; trial++ {
		cw := rs.Encode(randomData(rng, rs.K))
		corrupt(rng, cw, rng.Intn(3))
		want := rs.SyndromesInto(cw, nil)
		got := rs.SyndromesInto(cw, buf[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: SyndromesInto diverged from Syndromes", trial)
		}
		buf = got
	}
}

// TestRSDecoderAllocFree pins the ISSUE acceptance criterion: syndrome
// computation and erasure decoding through warm scratch perform zero heap
// allocations per operation.
func TestRSDecoderAllocFree(t *testing.T) {
	rs := NewRS(16, 2)
	dec := rs.NewDecoder()
	rng := simrand.New(0xa110c)
	clean := rs.Encode(randomData(rng, rs.K))
	oneErr := append([]uint8(nil), clean...)
	oneErr[5] ^= 0x3c
	twoEra := append([]uint8(nil), clean...)
	twoEra[2] ^= 0x77
	twoEra[9] ^= 0x11
	erasures := []int{2, 9}
	syn := make([]uint8, 0, rs.R)
	cw := make([]uint8, 0, rs.K+rs.R)
	scratch := append([]uint8(nil), twoEra...)

	cases := []struct {
		name string
		op   func()
	}{
		{"SyndromesInto", func() { syn = rs.SyndromesInto(clean, syn[:0]) }},
		{"IsValid", func() { _ = rs.IsValid(oneErr) }},
		{"EncodeInto", func() { cw = rs.EncodeInto(clean[:rs.K], cw[:0]) }},
		{"Decode/clean", func() {
			if st := dec.DecodeErasures(clean, nil); st != StatusOK {
				t.Fatalf("clean decode: %v", st)
			}
		}},
		{"Decode/oneError", func() {
			copy(scratch, oneErr)
			if st := dec.DecodeErasures(scratch, nil); st != StatusCorrected {
				t.Fatalf("one-error decode: %v", st)
			}
		}},
		{"DecodeErasures/two", func() {
			copy(scratch, twoEra)
			if st := dec.DecodeErasures(scratch, erasures); st != StatusCorrected {
				t.Fatalf("two-erasure decode: %v", st)
			}
		}},
	}
	for _, tc := range cases {
		tc.op() // warm-up
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestRSDecoderErrorsAndErasuresAllocFree exercises the widest decoder
// path — Berlekamp-Massey plus erasures on Double-Chipkill geometry.
func TestRSDecoderErrorsAndErasuresAllocFree(t *testing.T) {
	rs := NewRS(32, 4)
	dec := rs.NewDecoder()
	rng := simrand.New(0xff)
	clean := rs.Encode(randomData(rng, rs.K))
	bad := append([]uint8(nil), clean...)
	bad[3] ^= 0x5a            // unknown error
	bad[20] ^= 0x99           // erased position
	erasures := []int{20, 25} // one real erasure, one clean erasure
	scratch := make([]uint8, len(bad))
	op := func() {
		copy(scratch, bad)
		if st := dec.DecodeErasures(scratch, erasures); st != StatusCorrected {
			t.Fatalf("erasures+error decode: %v", st)
		}
	}
	op()
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Errorf("errors+erasures decode: %v allocs/op, want 0", allocs)
	}
	if !bytes.Equal(scratch, clean) {
		t.Fatal("errors+erasures decode did not restore the codeword")
	}
}

func BenchmarkChipkillDecoderOneErrorInPlace(b *testing.B) {
	rs := NewRS(16, 2)
	dec := rs.NewDecoder()
	rng := simrand.New(7)
	clean := rs.Encode(randomData(rng, rs.K))
	bad := append([]uint8(nil), clean...)
	bad[4] ^= 0x21
	scratch := make([]uint8, len(bad))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(scratch, bad)
		if st := dec.DecodeErasures(scratch, nil); st != StatusCorrected {
			b.Fatal(st)
		}
	}
}

func BenchmarkXEDChipkillTwoErasuresInPlace(b *testing.B) {
	rs := NewRS(16, 2)
	dec := rs.NewDecoder()
	rng := simrand.New(8)
	clean := rs.Encode(randomData(rng, rs.K))
	bad := append([]uint8(nil), clean...)
	bad[1] ^= 0x42
	bad[11] ^= 0x87
	erasures := []int{1, 11}
	scratch := make([]uint8, len(bad))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(scratch, bad)
		if st := dec.DecodeErasures(scratch, erasures); st != StatusCorrected {
			b.Fatal(st)
		}
	}
}
