package ecc

import (
	"fmt"
	"testing"
	"testing/quick"

	"xedsim/internal/simrand"
)

// rsName labels an RS configuration in test and benchmark names.
func rsName(rs *RS) string { return fmt.Sprintf("RS(%d,%d) over GF(256)", rs.K+rs.R, rs.K) }

func randomData(rng *simrand.Source, k int) []uint8 {
	d := make([]uint8, k)
	for i := range d {
		d[i] = uint8(rng.Uint64())
	}
	return d
}

func TestGF256FieldAxioms(t *testing.T) {
	// Multiplicative inverses, associativity and distributivity on a
	// random sample; exhaustive inverse check over all nonzero elements.
	for a := 1; a < 256; a++ {
		inv := gfDiv(1, uint8(a))
		if gfMul(uint8(a), inv) != 1 {
			t.Fatalf("inverse of %d wrong", a)
		}
	}
	rng := simrand.New(5)
	for i := 0; i < 20000; i++ {
		a, b, c := uint8(rng.Uint64()), uint8(rng.Uint64()), uint8(rng.Uint64())
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			t.Fatalf("associativity fails for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d,%d", a, b)
		}
	}
}

func TestGF256GeneratorOrder(t *testing.T) {
	// alpha = 2 must generate the full multiplicative group (order 255).
	seen := map[uint8]bool{}
	for i := 0; i < 255; i++ {
		e := gfPow(i)
		if seen[e] {
			t.Fatalf("alpha^%d repeats before order 255", i)
		}
		seen[e] = true
	}
	if gfPow(255) != 1 {
		t.Fatal("alpha^255 != 1")
	}
}

func TestPolyDeriv(t *testing.T) {
	// d/dx (1 + 3x + 5x^2 + 7x^3) = 3 + 7x^2 in characteristic 2.
	got := polyDerivInto([]uint8{1, 3, 5, 7}, make([]uint8, 3))
	want := []uint8{3, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("deriv length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deriv[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRSEncodeProducesValidCodewords(t *testing.T) {
	rng := simrand.New(10)
	for _, rs := range []*RS{NewChipkill(), NewDoubleChipkill(), NewRS(8, 3)} {
		for trial := 0; trial < 200; trial++ {
			cw := rs.Encode(randomData(rng, rs.K))
			if !rs.IsValid(cw) {
				t.Fatalf("%s: encoded word invalid", rsName(rs))
			}
			got, st := rs.DecodeErasures(cw, nil)
			if st != StatusOK {
				t.Fatalf("%s: clean decode status %v", rsName(rs), st)
			}
			for i := 0; i < rs.K+rs.R; i++ {
				if got[i] != cw[i] {
					t.Fatalf("%s: clean decode altered symbol %d", rsName(rs), i)
				}
			}
		}
	}
}

func TestChipkillCorrectsAnySingleSymbol(t *testing.T) {
	rs := NewChipkill()
	rng := simrand.New(20)
	for trial := 0; trial < 100; trial++ {
		data := randomData(rng, rs.K)
		cw := rs.Encode(data)
		for sym := 0; sym < rs.K+rs.R; sym++ {
			bad := make([]uint8, len(cw))
			copy(bad, cw)
			errVal := uint8(rng.Uint64())
			if errVal == 0 {
				errVal = 1
			}
			bad[sym] ^= errVal
			got, st := rs.DecodeErasures(bad, nil)
			if st != StatusCorrected {
				t.Fatalf("symbol %d: status %v", sym, st)
			}
			for i := range cw {
				if got[i] != cw[i] {
					t.Fatalf("symbol %d: decode mismatch at %d", sym, i)
				}
			}
		}
	}
}

func TestChipkillDetectsDoubleSymbol(t *testing.T) {
	// With two check symbols a two-chip failure must never be silently
	// accepted; it is either flagged (DUE) or — for some patterns —
	// mis-corrected, but mis-correction must change the word so the
	// paper's classification (failed system either way) holds. Count
	// both outcomes.
	rs := NewChipkill()
	rng := simrand.New(21)
	detected, miscorrected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		data := randomData(rng, rs.K)
		cw := rs.Encode(data)
		i := rng.Intn(rs.K + rs.R)
		j := rng.Intn(rs.K + rs.R)
		for j == i {
			j = rng.Intn(rs.K + rs.R)
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[i] ^= uint8(1 + rng.Intn(255))
		bad[j] ^= uint8(1 + rng.Intn(255))
		if rs.IsValid(bad) {
			t.Fatal("two-symbol error produced valid codeword (distance < 3?)")
		}
		got, st := rs.DecodeErasures(bad, nil)
		switch st {
		case StatusDetected:
			detected++
		case StatusCorrected:
			same := true
			for k := range cw {
				if got[k] != cw[k] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("double error 'mis-corrected' to the true word?!")
			}
			miscorrected++
		default:
			t.Fatalf("unexpected status %v", st)
		}
	}
	if detected == 0 {
		t.Fatal("no double-symbol errors detected")
	}
	// Bounded-distance decoding over R=2 mis-corrects the patterns that
	// alias into a single-symbol sphere; that must be a minority.
	if miscorrected > detected {
		t.Fatalf("mis-corrections (%d) exceed detections (%d)", miscorrected, detected)
	}
}

func TestDoubleChipkillCorrectsAnyTwoSymbols(t *testing.T) {
	rs := NewDoubleChipkill()
	rng := simrand.New(22)
	for trial := 0; trial < 400; trial++ {
		data := randomData(rng, rs.K)
		cw := rs.Encode(data)
		i := rng.Intn(rs.K + rs.R)
		j := rng.Intn(rs.K + rs.R)
		for j == i {
			j = rng.Intn(rs.K + rs.R)
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[i] ^= uint8(1 + rng.Intn(255))
		bad[j] ^= uint8(1 + rng.Intn(255))
		got, st := rs.DecodeErasures(bad, nil)
		if st != StatusCorrected {
			t.Fatalf("trial %d: status %v", trial, st)
		}
		for k := range cw {
			if got[k] != cw[k] {
				t.Fatalf("trial %d: mismatch at symbol %d", trial, k)
			}
		}
	}
}

func TestXEDChipkillErasureDecoding(t *testing.T) {
	// §IX-A: with catch-words naming the faulty chips, RS(18,16)
	// recovers TWO erased chips — the Double-Chipkill-level result.
	rs := NewXEDChipkill()
	rng := simrand.New(23)
	for trial := 0; trial < 400; trial++ {
		data := randomData(rng, rs.K)
		cw := rs.Encode(data)
		i := rng.Intn(rs.K + rs.R)
		j := rng.Intn(rs.K + rs.R)
		for j == i {
			j = rng.Intn(rs.K + rs.R)
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[i] ^= uint8(1 + rng.Intn(255))
		bad[j] ^= uint8(1 + rng.Intn(255))
		got, err := rs.CorrectErasuresOnly(bad, []int{i, j})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := range cw {
			if got[k] != cw[k] {
				t.Fatalf("trial %d: mismatch at symbol %d", trial, k)
			}
		}
	}
}

func TestErasuresPlusErrors(t *testing.T) {
	// RS(36,32) with R=4: one known erasure plus one unknown error
	// satisfies 2t+e <= R and must decode.
	rs := NewDoubleChipkill()
	rng := simrand.New(24)
	for trial := 0; trial < 300; trial++ {
		data := randomData(rng, rs.K)
		cw := rs.Encode(data)
		e := rng.Intn(rs.K + rs.R)
		u := rng.Intn(rs.K + rs.R)
		for u == e {
			u = rng.Intn(rs.K + rs.R)
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[e] ^= uint8(1 + rng.Intn(255))
		bad[u] ^= uint8(1 + rng.Intn(255))
		got, st := rs.DecodeErasures(bad, []int{e})
		if st != StatusCorrected {
			t.Fatalf("trial %d: status %v", trial, st)
		}
		for k := range cw {
			if got[k] != cw[k] {
				t.Fatalf("trial %d: mismatch at %d", trial, k)
			}
		}
	}
}

func TestErasureOfCleanSymbolIsHarmless(t *testing.T) {
	// A catch-word collision (§V-D) makes the controller erase a chip
	// whose data was actually fine. The decode must still return the
	// correct word.
	rs := NewXEDChipkill()
	rng := simrand.New(25)
	for trial := 0; trial < 200; trial++ {
		cw := rs.Encode(randomData(rng, rs.K))
		got, st := rs.DecodeErasures(cw, []int{rng.Intn(rs.K + rs.R)})
		if st != StatusOK {
			t.Fatalf("status %v", st)
		}
		for k := range cw {
			if got[k] != cw[k] {
				t.Fatalf("mismatch at %d", k)
			}
		}
	}
}

func TestTooManyErasures(t *testing.T) {
	rs := NewChipkill()
	cw := rs.Encode(make([]uint8, rs.K))
	if _, err := rs.CorrectErasuresOnly(cw, []int{0, 1, 2}); err != ErrTooManyErasures {
		t.Fatalf("err = %v, want ErrTooManyErasures", err)
	}
}

func TestRSEncodeLinearity(t *testing.T) {
	rs := NewChipkill()
	f := func(seed1, seed2 uint64) bool {
		r1, r2 := simrand.New(seed1), simrand.New(seed2)
		a, b := randomData(r1, rs.K), randomData(r2, rs.K)
		sum := make([]uint8, rs.K)
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		ca, cb, cs := rs.Encode(a), rs.Encode(b), rs.Encode(sum)
		for i := range cs {
			if cs[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRSThreeErrorsNotSilent(t *testing.T) {
	// d = R+1 = 5 for Double-Chipkill: any 3-symbol error is invalid
	// (weight below minimum distance) and must not be accepted as-is.
	rs := NewDoubleChipkill()
	rng := simrand.New(26)
	for trial := 0; trial < 2000; trial++ {
		cw := rs.Encode(randomData(rng, rs.K))
		n := rs.K + rs.R
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		for k == i || k == j {
			k = rng.Intn(n)
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[i] ^= uint8(1 + rng.Intn(255))
		bad[j] ^= uint8(1 + rng.Intn(255))
		bad[k] ^= uint8(1 + rng.Intn(255))
		if rs.IsValid(bad) {
			t.Fatal("three-symbol error is a valid codeword (distance < 4?)")
		}
	}
}

func BenchmarkChipkillDecodeClean(b *testing.B) {
	rs := NewChipkill()
	cw := rs.Encode(make([]uint8, rs.K))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.DecodeErasures(cw, nil)
	}
}

func BenchmarkChipkillDecodeOneError(b *testing.B) {
	rs := NewChipkill()
	cw := rs.Encode(make([]uint8, rs.K))
	cw[3] ^= 0x5a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.DecodeErasures(cw, nil)
	}
}

func BenchmarkXEDChipkillTwoErasures(b *testing.B) {
	rs := NewXEDChipkill()
	cw := rs.Encode(make([]uint8, rs.K))
	cw[3] ^= 0x5a
	cw[9] ^= 0xc3
	erasures := []int{3, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.DecodeErasures(cw, erasures)
	}
}
