package ecc

import (
	"testing"

	"xedsim/internal/simrand"
)

func TestHammingLayout(t *testing.T) {
	dataPos, checkPos := hammingLayout()
	for i, p := range dataPos {
		if p < 1 || p > 71 || p&(p-1) == 0 {
			t.Fatalf("data position %d invalid", p)
		}
		// 64 ascending positions out of the 64 non-powers of two in
		// 1..71: the layout is pinned exactly.
		if i > 0 && p <= dataPos[i-1] {
			t.Fatalf("data positions not ascending at bit %d (%d after %d)", i, p, dataPos[i-1])
		}
	}
	wantCheck := []int{1, 2, 4, 8, 16, 32, 64, 72}
	for i, p := range checkPos {
		if p != wantCheck[i] {
			t.Fatalf("check position %d = %d, want %d", i, p, wantCheck[i])
		}
	}
}

// TestHammingMatrixIsTextbook pins the code itself, not just its SECDED
// properties (which any column permutation keeps): the syndrome of the bit
// at classical position p spells p under the overall-parity bit 0x80, the
// parity bit at position 72 has syndrome 0x80 alone, and serial position k
// holds classical position k+1.
func TestHammingMatrixIsTextbook(t *testing.T) {
	code := NewHamming()
	h := code.Matrix()
	dataPos, checkPos := hammingLayout()
	pos := append(dataPos[:], checkPos[:]...)
	for i, p := range pos {
		want := uint8(p) | 0x80
		if p == 72 {
			want = 0x80
		}
		if h[i] != want {
			t.Fatalf("bit %d (position %d): syndrome %#02x, want %#02x", i, p, h[i], want)
		}
	}
	for k, i := range code.SerialOrder() {
		if pos[i] != k+1 {
			t.Fatalf("serial position %d holds classical position %d, want %d", k, pos[i], k+1)
		}
	}
}

// The clauses of TestSECDEDContract, run on Hamming alone.
func TestHammingRoundTrip(t *testing.T)              { roundTripVectors(t, NewHamming()) }
func TestHammingRoundTripProperty(t *testing.T)      { roundTripProperty(t, NewHamming()) }
func TestHammingCorrectsEverySingleBit(t *testing.T) { correctsEverySingleBit(t, NewHamming()) }
func TestHammingDetectsEveryDoubleBit(t *testing.T)  { detectsEveryDoubleBit(t, NewHamming()) }
func TestHammingOddErrorsNeverSilent(t *testing.T)   { oddErrorsNeverSilent(t, NewHamming()) }

func TestHammingBurst4AlignedUndetected(t *testing.T) {
	// The classic weakness Table II reports: a burst of 4 consecutive
	// classical positions starting at an even position has syndrome
	// p^(p+1)^(p+2)^(p+3) = 0 and is silently accepted. Verify both
	// directions of the dichotomy.
	h := NewHamming()
	order := h.SerialOrder()
	evenStart, oddStart := 0, 0
	evenSilent := 0
	for start := 0; start+4 <= 72; start++ {
		cw := Codeword72{}
		for i := 0; i < 4; i++ {
			cw = cw.FlipBit(order[start+i])
		}
		classical := start + 1 // serial index 0 = classical position 1
		if classical%2 == 0 {
			evenStart++
			if h.IsValid(cw) {
				evenSilent++
			}
		} else {
			oddStart++
			if h.IsValid(cw) {
				t.Fatalf("odd-start burst at %d silently accepted", classical)
			}
		}
	}
	if evenSilent == 0 {
		t.Fatal("expected some even-start 4-bursts to be silent for Hamming")
	}
}

func TestHammingEncodeDeterministic(t *testing.T) {
	a, b := NewHamming(), NewHamming()
	rng := simrand.New(3)
	for i := 0; i < 1000; i++ {
		v := rng.Uint64()
		if a.Encode(v) != b.Encode(v) {
			t.Fatalf("Encode(%#x) differs between instances", v)
		}
	}
}

func BenchmarkHammingEncode(b *testing.B) {
	h := NewHamming()
	var sink Codeword72
	for i := 0; i < b.N; i++ {
		sink = h.Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

func BenchmarkHammingDecode(b *testing.B) {
	h := NewHamming()
	cw := h.Encode(0xdeadbeefcafebabe)
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := h.Decode(cw)
		sink += v
	}
	_ = sink
}
