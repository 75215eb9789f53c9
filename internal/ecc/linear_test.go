package ecc

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"xedsim/internal/simrand"
)

// testCode is one (72,64) code under test, with its textbook single-error
// rule: which nonzero syndromes its decoder may treat as one flipped bit.
type testCode struct {
	name   string
	code   *LinearCode64
	single func(s uint8) bool
}

func oddWeight(s uint8) bool { return bits.OnesCount8(s)%2 == 1 }

// testCodes returns every code the repository names — Hamming (overall
// parity bit set), Hsiao (odd weight) and CRC8-ATM (any column) — and
// RandomSECDED seeds 0-3 (odd weight, like Hsiao).
func testCodes() []testCode {
	codes := []testCode{
		{"hamming", NewHamming(), func(s uint8) bool { return s&0x80 != 0 }},
		{"hsiao", NewHsiao(), oddWeight},
		{"crc8", NewCRC8ATM(), func(uint8) bool { return true }},
	}
	for seed := uint64(0); seed < 4; seed++ {
		codes = append(codes, testCode{fmt.Sprintf("random-%d", seed), RandomSECDED(simrand.New(seed)), oddWeight})
	}
	return codes
}

// naiveSyndrome is the definition of a syndrome: the XOR of the matrix
// columns at the word's set bits.
func naiveSyndrome(h *HMatrix72, cw Codeword72) uint8 {
	var s uint8
	for d := cw.Data; d != 0; d &= d - 1 {
		s ^= h[bits.TrailingZeros64(d)]
	}
	for c := cw.Check; c != 0; c &= c - 1 {
		s ^= h[dataBits+bits.TrailingZeros8(c)]
	}
	return s
}

// naiveEncode searches the 256 check bytes for the one that zeroes the
// syndrome.
func (tc testCode) naiveEncode(data uint64) Codeword72 {
	h := tc.code.Matrix()
	want := naiveSyndrome(&h, Codeword72{Data: data})
	for c := 0; c < 256; c++ {
		if naiveSyndrome(&h, Codeword72{Check: uint8(c)}) == want {
			return Codeword72{Data: data, Check: uint8(c)}
		}
	}
	panic("no check byte zeroes the syndrome")
}

// naiveDecode corrects only a syndrome that passes the code's textbook
// single-error rule and names a column.
func (tc testCode) naiveDecode(cw Codeword72) (uint64, DecodeStatus) {
	h := tc.code.Matrix()
	s := naiveSyndrome(&h, cw)
	if s == 0 {
		return cw.Data, StatusOK
	}
	if tc.single(s) {
		for i, col := range h {
			if col == s {
				return cw.FlipBit(i).Data, StatusCorrected
			}
		}
	}
	return cw.Data, StatusDetected
}

// compareNaive fails t unless LinearCode64 encodes data, and validates and
// decodes data's codeword under the error pattern, exactly as the naive
// codec does.
func compareNaive(t *testing.T, tc testCode, data, flipData uint64, flipCheck uint8) {
	t.Helper()
	clean := tc.naiveEncode(data)
	if got := tc.code.Encode(data); got != clean {
		t.Fatalf("%s: Encode(%#x) = %+v, naive %+v", tc.name, data, got, clean)
	}
	cw := clean.FlipMask(flipData, flipCheck)
	h := tc.code.Matrix()
	if nv, lv := naiveSyndrome(&h, cw) == 0, tc.code.IsValid(cw); nv != lv {
		t.Fatalf("%s: IsValid(%+v) = %v, naive %v", tc.name, cw, lv, nv)
	}
	nd, ns := tc.naiveDecode(cw)
	ld, ls := tc.code.Decode(cw)
	if nd != ld || ns != ls {
		t.Fatalf("%s: Decode(%+v) = (%#x, %v), naive (%#x, %v)", tc.name, cw, ld, ls, nd, ns)
	}
}

func TestLinearMatchesNaiveExhaustiveErrors(t *testing.T) {
	for _, tc := range testCodes() {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrand.New(11)
			for trial := 0; trial < 8; trial++ {
				v := rng.Uint64()
				// All weight-1 and weight-2 error patterns.
				for i := 0; i < codeBits; i++ {
					one := Codeword72{}.FlipBit(i)
					compareNaive(t, tc, v, one.Data, one.Check)
					for j := i + 1; j < codeBits; j++ {
						two := one.FlipBit(j)
						compareNaive(t, tc, v, two.Data, two.Check)
					}
				}
			}
		})
	}
}

func TestLinearMatchesNaiveRandomErrors(t *testing.T) {
	for _, tc := range testCodes() {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrand.New(23)
			for trial := 0; trial < 20000; trial++ {
				compareNaive(t, tc, rng.Uint64(), rng.Uint64(), uint8(rng.Uint64()))
			}
		})
	}
}

// TestSECDEDContract holds every code in testCodes to the SECDED contract,
// one clause per helper below: clean words round-trip, every single-bit
// error is corrected exactly, every double-bit error is detected (never
// valid, never mis-corrected), and no odd-weight error is ever a valid
// codeword. The per-code tests in hamming_test.go, hsiao_test.go and
// crc8_test.go run single clauses on one named code each.
func TestSECDEDContract(t *testing.T) {
	for _, tc := range testCodes() {
		code := tc.code
		t.Run(tc.name, func(t *testing.T) {
			roundTripVectors(t, code)
			roundTripProperty(t, code)
			correctsEverySingleBit(t, code)
			detectsEveryDoubleBit(t, code)
			oddErrorsNeverSilent(t, code)
		})
	}
}

func roundTrips(code *LinearCode64, v uint64) bool {
	cw := code.Encode(v)
	got, st := code.Decode(cw)
	return code.IsValid(cw) && st == StatusOK && got == v
}

func roundTripVectors(t *testing.T, code *LinearCode64) {
	t.Helper()
	for _, v := range []uint64{0, 1, ^uint64(0), 0xdeadbeefcafebabe, 1 << 63, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa} {
		if !roundTrips(code, v) {
			t.Fatalf("Encode(%#x) does not round-trip", v)
		}
	}
}

func roundTripProperty(t *testing.T, code *LinearCode64) {
	t.Helper()
	if err := quick.Check(func(v uint64) bool { return roundTrips(code, v) }, nil); err != nil {
		t.Fatal(err)
	}
}

func correctsEverySingleBit(t *testing.T, code *LinearCode64) {
	t.Helper()
	rng := simrand.New(1)
	for trial := 0; trial < 32; trial++ {
		v := rng.Uint64()
		cw := code.Encode(v)
		for bit := 0; bit < codeBits; bit++ {
			if got, st := code.Decode(cw.FlipBit(bit)); st != StatusCorrected || got != v {
				t.Fatalf("single error at bit %d of %#x: (%#x, %v), want corrected", bit, v, got, st)
			}
		}
	}
}

func detectsEveryDoubleBit(t *testing.T, code *LinearCode64) {
	t.Helper()
	cw := code.Encode(0x0123456789abcdef)
	for i := 0; i < codeBits; i++ {
		for j := i + 1; j < codeBits; j++ {
			bad := cw.FlipBit(i).FlipBit(j)
			if code.IsValid(bad) {
				t.Fatalf("double error (%d,%d) is a valid codeword", i, j)
			}
			if _, st := code.Decode(bad); st != StatusDetected {
				t.Fatalf("double error (%d,%d): status %v, want detected", i, j, st)
			}
		}
	}
}

// oddErrorsNeverSilent: odd-weight errors can mis-correct, but never yield
// a valid codeword, so XED's detection predicate always fires.
func oddErrorsNeverSilent(t *testing.T, code *LinearCode64) {
	t.Helper()
	rng := simrand.New(7)
	for trial := 0; trial < 20000; trial++ {
		cw := code.Encode(rng.Uint64())
		k := 1 + 2*rng.Intn(4) // 1,3,5,7
		seen := map[int]bool{}
		for len(seen) < k {
			seen[rng.Intn(codeBits)] = true
		}
		for b := range seen {
			cw = cw.FlipBit(b)
		}
		if code.IsValid(cw) {
			t.Fatalf("odd-weight (%d) error produced a valid codeword", k)
		}
	}
	rates := MeasureDetection(code, 100_000, 3)
	for _, k := range []int{1, 3, 5, 7} {
		if rates.Random[k-1] != 1 {
			t.Fatalf("odd weight %d detection %v, want 1", k, rates.Random[k-1])
		}
	}
}

func TestLinearRejectsZeroColumn(t *testing.T) {
	h := NewHsiao().Matrix()
	h[17] = 0
	if _, err := NewLinearCode64("bad", h); err == nil || !strings.Contains(err.Error(), "column 17") {
		t.Fatalf("zero column: err = %v, want mention of column 17", err)
	}
}

func TestLinearRejectsDuplicateColumns(t *testing.T) {
	// The satellite bug: a silent posForSyndrome overwrite would alias two
	// positions onto one syndrome. The constructor must name both columns
	// and the shared syndrome.
	h := NewHsiao().Matrix()
	h[40] = h[3]
	_, err := NewLinearCode64("bad", h)
	if err == nil {
		t.Fatal("duplicate columns accepted")
	}
	for _, want := range []string{"columns 3 and 40", "mis-correct"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLinearRejectsSingularCheckSubmatrix(t *testing.T) {
	h := NewHsiao().Matrix()
	// Replace the first three check columns with 0x03, 0x05 and their sum
	// 0x06: rank drops to 7 while all 72 columns stay distinct and nonzero
	// (Hsiao data columns all have odd weight; these are even).
	h[64], h[65], h[66] = 0x03, 0x05, 0x06
	_, err := NewLinearCode64("bad", h)
	if err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("singular check submatrix: err = %v, want 'singular'", err)
	}
}

func TestRandomSECDEDDeterministicAndSECDED(t *testing.T) {
	a := RandomSECDED(simrand.New(99))
	b := RandomSECDED(simrand.New(99))
	if a.Name() != b.Name() || a.Matrix() != b.Matrix() {
		t.Fatal("same seed drew different codes")
	}
	if c := RandomSECDED(simrand.New(100)); c.Matrix() == a.Matrix() {
		t.Fatal("different seeds drew the same code")
	}
	// Odd columns make u = 0xff a parity functional: an even-weight error
	// can then never name a column, so Decode detects every double error.
	for i, col := range a.Matrix() {
		if !oddWeight(col) {
			t.Fatalf("column %d (%#02x) has even weight", i, col)
		}
	}
}

func TestCanonicalForm(t *testing.T) {
	// Hsiao and CRC8 already have identity check columns: canonical form
	// is the identity transform.
	for _, m := range []HMatrix72{NewHsiao().Matrix(), NewCRC8ATM().Matrix()} {
		c, err := m.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if c != m {
			t.Fatal("canonical form of an already-canonical matrix changed it")
		}
	}
	// Hamming's check columns are not the identity (each carries the
	// overall-parity row). Canonicalisation must produce identity check
	// columns while preserving the codeword set.
	ham := NewHamming()
	canon, err := ham.Matrix().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		if canon[64+a] != 1<<uint(a) {
			t.Fatalf("canonical check column %d = %#02x, want %#02x", a, canon[64+a], 1<<uint(a))
		}
	}
	lin := MustLinearCode64("canon-hamming", canon)
	rng := simrand.New(5)
	for trial := 0; trial < 5000; trial++ {
		v := rng.Uint64()
		if ham.Encode(v) != lin.Encode(v) {
			t.Fatalf("canonical code encodes %#x differently", v)
		}
		cw := ham.Encode(v).FlipMask(rng.Uint64(), uint8(rng.Uint64()))
		if ham.IsValid(cw) != lin.IsValid(cw) {
			t.Fatalf("canonical code disagrees on validity of %+v", cw)
		}
	}
}

func TestHMatrixString(t *testing.T) {
	s := NewHsiao().Matrix().String()
	if !strings.Contains(s, "|") || !strings.Contains(s, "07") {
		t.Fatalf("unexpected rendering: %q", s)
	}
}

func BenchmarkLinearEncode(b *testing.B) {
	code := MustLinearCode64("bench", NewHsiao().Matrix())
	var sink Codeword72
	for i := 0; i < b.N; i++ {
		sink = code.Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

func BenchmarkLinearDecode(b *testing.B) {
	code := MustLinearCode64("bench", NewHsiao().Matrix())
	cw := code.Encode(0xdeadbeefcafebabe)
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := code.Decode(cw)
		sink += v
	}
	_ = sink
}
