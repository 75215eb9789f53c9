package ecc

import (
	"testing"
	"testing/quick"

	"xedsim/internal/simrand"
)

func TestParityRoundTrip(t *testing.T) {
	f := func(seed uint64, erased uint8) bool {
		rng := simrand.New(seed)
		words := make([]uint64, ParityWords)
		for i := range words {
			words[i] = rng.Uint64()
		}
		p := Parity(words)
		if !CheckParity(words, p) {
			return false
		}
		e := int(erased) % ParityWords
		orig := words[e]
		words[e] = rng.Uint64() // corrupt
		return Reconstruct(words, p, e) == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParityDetectsSingleCorruption(t *testing.T) {
	rng := simrand.New(42)
	words := make([]uint64, ParityWords)
	for i := range words {
		words[i] = rng.Uint64()
	}
	p := Parity(words)
	for e := 0; e < ParityWords; e++ {
		bad := make([]uint64, ParityWords)
		copy(bad, words)
		bad[e] ^= 1 << uint(e*7%64)
		if CheckParity(bad, p) {
			t.Fatalf("corruption of word %d not detected", e)
		}
		if Parity(bad)^p == 0 {
			t.Fatalf("ambiguity zero for corrupt word %d", e)
		}
	}
	// Corrupting the parity itself is also detected.
	if CheckParity(words, p^1) {
		t.Fatal("parity corruption not detected")
	}
}

func TestParityCannotSeeCancellingCorruption(t *testing.T) {
	// The documented limit of XOR parity: identical corruption in two
	// words cancels. XED closes this hole with per-chip on-die
	// detection; this test pins the substrate behaviour.
	words := make([]uint64, ParityWords)
	p := Parity(words)
	words[0] ^= 0xff
	words[5] ^= 0xff
	if !CheckParity(words, p) {
		t.Fatal("expected cancelling corruption to be invisible to parity alone")
	}
}

func TestReconstructIgnoresErasedValue(t *testing.T) {
	rng := simrand.New(43)
	words := make([]uint64, ParityWords)
	for i := range words {
		words[i] = rng.Uint64()
	}
	p := Parity(words)
	orig := words[3]
	for _, garbage := range []uint64{0, ^uint64(0), 0x1234} {
		words[3] = garbage
		if got := Reconstruct(words, p, 3); got != orig {
			t.Fatalf("Reconstruct with garbage %#x = %#x, want %#x", garbage, got, orig)
		}
	}
}

func TestReconstructPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Reconstruct(make([]uint64, 8), 0, 8)
}

func TestParityEmptyAndSingle(t *testing.T) {
	if Parity(nil) != 0 {
		t.Fatal("parity of nothing should be 0")
	}
	if Parity([]uint64{0xabcd}) != 0xabcd {
		t.Fatal("parity of one word should be that word")
	}
}

func BenchmarkParityReconstruct(b *testing.B) {
	words := make([]uint64, ParityWords)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	p := Parity(words)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Reconstruct(words, p, i&7)
	}
	_ = sink
}
