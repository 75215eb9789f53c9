package ecc

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"xedsim/internal/simrand"
)

// crc8Bitwise is the textbook reference: long division of msg·x⁸ by
// x⁸ + x² + x + 1, shifting msg in most-significant bit first.
func crc8Bitwise(msg []byte) uint8 {
	var r uint8
	for _, b := range msg {
		for i := 7; i >= 0; i-- {
			fb := r>>7 ^ b>>uint(i)&1
			r <<= 1
			if fb == 1 {
				r ^= crc8Poly
			}
		}
	}
	return r
}

// crc8Word is crc8Bitwise over a data word in network byte order.
func crc8Word(data uint64) uint8 {
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], data)
	return crc8Bitwise(msg[:])
}

func TestCRC8KnownVector(t *testing.T) {
	// CRC-8/ATM ("CRC-8" in the RevEng catalogue): poly 0x07, init 0,
	// no reflection, xorout 0. The check value of "123456789" is 0xF4.
	if r := crc8Bitwise([]byte("123456789")); r != 0xf4 {
		t.Fatalf("CRC8-ATM check value = %#x, want 0xf4", r)
	}
}

func TestCRC8EncodeMatchesBitwise(t *testing.T) {
	c := NewCRC8ATM()
	rng := simrand.New(11)
	for i := 0; i < 5000; i++ {
		v := rng.Uint64()
		if got, want := c.Encode(v).Check, crc8Word(v); got != want {
			t.Fatalf("Encode(%#x).Check = %#x, bitwise CRC %#x", v, got, want)
		}
	}
}

func TestCRC8LinearityProperty(t *testing.T) {
	// CRC over GF(2) is linear, crc(a^b) == crc(a)^crc(b), which is what
	// lets NewCRC8ATM express it as a parity-check matrix.
	f := func(a, b uint64) bool {
		return crc8Word(a^b) == crc8Word(a)^crc8Word(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC8SerialOrderIsWireOrder(t *testing.T) {
	// The message goes out d63 first, then the check byte c7..c0.
	order := NewCRC8ATM().SerialOrder()
	for k, i := range order {
		want := 63 - k
		if k >= 64 {
			want = 64 + 71 - k
		}
		if i != want {
			t.Fatalf("serial position %d holds bit %d, want %d", k, i, want)
		}
	}
}

// The clauses of TestSECDEDContract, run on CRC8-ATM alone. HD = 4 at this
// length, so no double error aliases to a single-bit syndrome.
func TestCRC8RoundTrip(t *testing.T)              { roundTripProperty(t, NewCRC8ATM()) }
func TestCRC8CorrectsEverySingleBit(t *testing.T) { correctsEverySingleBit(t, NewCRC8ATM()) }
func TestCRC8DetectsEveryDoubleBit(t *testing.T)  { detectsEveryDoubleBit(t, NewCRC8ATM()) }

func TestCRC8DetectsAllBurstsUpTo8(t *testing.T) {
	// A degree-8 CRC detects every burst of length <= 8 in wire order —
	// the paper's headline argument for CRC8-ATM (Table II, 100% burst
	// column). Exhaustive over all windows and all interior patterns.
	c := NewCRC8ATM()
	order := c.SerialOrder()
	for length := 1; length <= 8; length++ {
		for start := 0; start+length <= 72; start++ {
			// All patterns with first and last bit of the window
			// set (defining a burst of exactly this length).
			interior := length - 2
			patterns := 1
			if interior > 0 {
				patterns = 1 << uint(interior)
			}
			for pat := 0; pat < patterns; pat++ {
				cw := Codeword72{}.FlipBit(order[start])
				if length > 1 {
					cw = cw.FlipBit(order[start+length-1])
				}
				for b := 0; b < interior; b++ {
					if pat>>uint(b)&1 == 1 {
						cw = cw.FlipBit(order[start+1+b])
					}
				}
				if c.IsValid(cw) {
					t.Fatalf("burst len=%d start=%d pattern=%#x undetected", length, start, pat)
				}
			}
		}
	}
}

func TestSerialOrdersArePermutations(t *testing.T) {
	for _, tc := range testCodes() {
		so := tc.code.SerialOrder()
		seen := [72]bool{}
		for _, idx := range so {
			if idx < 0 || idx >= 72 || seen[idx] {
				t.Fatalf("%s: serial order is not a permutation", tc.name)
			}
			seen[idx] = true
		}
	}
}

func BenchmarkCRC8Encode(b *testing.B) {
	c := NewCRC8ATM()
	var sink Codeword72
	for i := 0; i < b.N; i++ {
		sink = c.Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

func BenchmarkCRC8Decode(b *testing.B) {
	c := NewCRC8ATM()
	cw := c.Encode(0xdeadbeefcafebabe)
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := c.Decode(cw)
		sink += v
	}
	_ = sink
}
