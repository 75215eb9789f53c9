package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

// corruptRandomly flips up to four random symbols of cw.
func corruptRandomly(rng *rand.Rand, cw []uint8) {
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		cw[rng.Intn(len(cw))] ^= uint8(1 + rng.Intn(255))
	}
}

// TestSyndromeTablesMatchHorner pins the contribution tables to the
// Horner oracle bit for bit, on clean and corrupted codewords, for every
// code shape the simulator instantiates plus an odd one.
func TestSyndromeTablesMatchHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{16, 2}, {32, 4}, {4, 3}, {1, 1}, {100, 8}} {
		rs := NewRS(shape[0], shape[1])
		if rs.synTab == nil {
			t.Fatalf("%s: contribution tables not built", rsName(rs))
		}
		data := make([]uint8, rs.K)
		horner := make([]uint8, rs.R)
		for trial := 0; trial < 200; trial++ {
			for i := range data {
				data[i] = uint8(rng.Intn(256))
			}
			cw := rs.Encode(data)
			if trial%2 == 1 {
				corruptRandomly(rng, cw)
			}
			rs.synHorner(cw, horner)
			got := rs.SyndromesInto(cw, nil)
			if !bytes.Equal(got, horner) {
				t.Fatalf("%s: tabled syndromes %v != Horner %v", rsName(rs), got, horner)
			}
			wantValid := true
			for _, s := range horner {
				wantValid = wantValid && s == 0
			}
			if rs.IsValid(cw) != wantValid {
				t.Fatalf("%s: IsValid = %v, syndromes %v", rsName(rs), !wantValid, horner)
			}
		}
	}
}

// TestLargeCodeFallsBackToHorner: a code past synTabLimit skips the
// tables but keeps identical results.
func TestLargeCodeFallsBackToHorner(t *testing.T) {
	rs := NewRS(200, 55) // 255·55·256 > synTabLimit
	if rs.synTab != nil {
		t.Fatal("oversized code built contribution tables")
	}
	data := make([]uint8, rs.K)
	for i := range data {
		data[i] = uint8(i * 7)
	}
	cw := rs.Encode(data)
	if !rs.IsValid(cw) {
		t.Fatal("clean codeword judged invalid on the Horner fallback")
	}
	cw[3] ^= 0x5a
	if rs.IsValid(cw) {
		t.Fatal("corrupted codeword judged valid on the Horner fallback")
	}
}

// benchCodewords builds n codewords with a few corrupted.
func benchCodewords(rs *RS, n int) [][]uint8 {
	rng := rand.New(rand.NewSource(4))
	cws := make([][]uint8, n)
	for i := range cws {
		data := make([]uint8, rs.K)
		rng.Read(data)
		cws[i] = rs.Encode(data)
		if i%16 == 0 {
			corruptRandomly(rng, cws[i])
		}
	}
	return cws
}

func BenchmarkSyndromes(b *testing.B) {
	for _, shape := range [][2]int{{16, 2}, {32, 4}} {
		rs := NewRS(shape[0], shape[1])
		cws := benchCodewords(rs, 1024)
		b.Run("horner/"+rsName(rs), func(b *testing.B) {
			syn := make([]uint8, rs.R)
			b.SetBytes(int64(len(cws) * (rs.K + rs.R)))
			for i := 0; i < b.N; i++ {
				for _, cw := range cws {
					rs.synHorner(cw, syn)
				}
			}
		})
		b.Run("tabled/"+rsName(rs), func(b *testing.B) {
			syn := make([]uint8, rs.R)
			b.SetBytes(int64(len(cws) * (rs.K + rs.R)))
			for i := 0; i < b.N; i++ {
				for _, cw := range cws {
					for j := range syn {
						syn[j] = 0
					}
					rs.synTabbed(cw, syn)
				}
			}
		})
	}
}
