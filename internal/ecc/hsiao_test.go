package ecc

import "testing"

// TestHsiaoColumnSequence pins the code itself: the 56 weight-3 bytes in
// ascending order, the first 8 weight-5 bytes, then identity check columns.
func TestHsiaoColumnSequence(t *testing.T) {
	want := HMatrix72{
		0x07, 0x0b, 0x0d, 0x0e, 0x13, 0x15, 0x16, 0x19,
		0x1a, 0x1c, 0x23, 0x25, 0x26, 0x29, 0x2a, 0x2c,
		0x31, 0x32, 0x34, 0x38, 0x43, 0x45, 0x46, 0x49,
		0x4a, 0x4c, 0x51, 0x52, 0x54, 0x58, 0x61, 0x62,
		0x64, 0x68, 0x70, 0x83, 0x85, 0x86, 0x89, 0x8a,
		0x8c, 0x91, 0x92, 0x94, 0x98, 0xa1, 0xa2, 0xa4,
		0xa8, 0xb0, 0xc1, 0xc2, 0xc4, 0xc8, 0xd0, 0xe0,
		0x1f, 0x2f, 0x37, 0x3b, 0x3d, 0x3e, 0x4f, 0x57,
		0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
	}
	if got := NewHsiao().Matrix(); got != want {
		t.Fatalf("Hsiao matrix\n got %v\nwant %v", got, want)
	}
}

func TestHsiaoColumnsOddWeightAndDistinct(t *testing.T) {
	seen := map[uint8]bool{}
	for i, c := range NewHsiao().Matrix() {
		if !oddWeight(c) {
			t.Fatalf("column %d (%#02x) has even weight", i, c)
		}
		if seen[c] {
			t.Fatalf("duplicate column %#x", c)
		}
		seen[c] = true
	}
}

// The clauses of TestSECDEDContract, run on Hsiao alone. Two odd-weight
// columns XOR to an even-weight syndrome, so a double error never names a
// column and is never mis-corrected.
func TestHsiaoRoundTrip(t *testing.T)              { roundTripProperty(t, NewHsiao()) }
func TestHsiaoCorrectsEverySingleBit(t *testing.T) { correctsEverySingleBit(t, NewHsiao()) }
func TestHsiaoDetectsEveryDoubleBitWithoutMiscorrection(t *testing.T) {
	detectsEveryDoubleBit(t, NewHsiao())
}
func TestHsiaoOddErrorsNeverSilent(t *testing.T) { oddErrorsNeverSilent(t, NewHsiao()) }

func TestHsiaoBeatsHammingOnRandomEvenErrors(t *testing.T) {
	hs := MeasureDetection(NewHsiao(), 300_000, 4)
	hm := MeasureDetection(NewHamming(), 300_000, 4)
	if hs.Random[3] <= hm.Random[3] {
		t.Fatalf("Hsiao random-4 %v should beat Hamming %v", hs.Random[3], hm.Random[3])
	}
}

func TestHsiaoVersusCRC8OnBursts(t *testing.T) {
	// Hsiao lacks CRC8-ATM's burst guarantee: adjacent data columns can
	// XOR to zero, so some burst of length <= 8 goes silent, while CRC8-ATM
	// detects every one.
	hs := MeasureDetection(NewHsiao(), 50_000, 5)
	cr := MeasureDetection(NewCRC8ATM(), 50_000, 5)
	hsiaoMisses := false
	for k := 1; k <= 8; k++ {
		hsiaoMisses = hsiaoMisses || hs.Burst[k-1] < 1
		if cr.Burst[k-1] != 1 {
			t.Fatalf("CRC8 burst-%d detection %v, want 100%%", k, cr.Burst[k-1])
		}
	}
	if !hsiaoMisses {
		t.Fatal("Hsiao detected every burst <= 8; want some miss")
	}
}

func BenchmarkHsiaoEncode(b *testing.B) {
	h := NewHsiao()
	var sink Codeword72
	for i := 0; i < b.N; i++ {
		sink = h.Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}
