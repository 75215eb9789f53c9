package ecc

import "testing"

// FuzzCode64: every code in testCodes must round-trip clean codewords,
// never "correct" a clean codeword into different data, give every decode a
// coherent status, and correct every single-bit flip exactly, for
// arbitrary inputs. FuzzCode64Hamming, FuzzCode64CRC8 and FuzzCode64Hsiao
// hold one named code each to the same contract, so a fuzzing session can
// spend its whole budget on one matrix. Run with
// `go test -fuzz=FuzzCode64 ./internal/ecc` for continuous fuzzing; the
// seed corpus runs in normal test mode.
func FuzzCode64(f *testing.F) {
	var codes []*LinearCode64
	for _, tc := range testCodes() {
		codes = append(codes, tc.code)
	}
	fuzzCode64(f, codes...)
}

func FuzzCode64Hamming(f *testing.F) { fuzzCode64(f, NewHamming()) }
func FuzzCode64CRC8(f *testing.F)    { fuzzCode64(f, NewCRC8ATM()) }
func FuzzCode64Hsiao(f *testing.F)   { fuzzCode64(f, NewHsiao()) }

func fuzzCode64(f *testing.F, codes ...*LinearCode64) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(0xdeadbeefcafebabe), uint64(1)<<13, uint8(0x80))
	f.Add(^uint64(0), ^uint64(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, data, flipData uint64, flipCheck uint8) {
		for _, code := range codes {
			cw := code.Encode(data)
			if !code.IsValid(cw) {
				t.Fatalf("%s: Encode(%#x) invalid", code.Name(), data)
			}
			got, st := code.Decode(cw)
			if st != StatusOK || got != data {
				t.Fatalf("%s: clean decode (%#x, %v)", code.Name(), got, st)
			}
			bad := cw.FlipMask(flipData, flipCheck)
			got, st = code.Decode(bad)
			switch st {
			case StatusOK:
				// Zero-syndrome corruption: the pattern is a codeword,
				// and the data must come back as received.
				if got != bad.Data {
					t.Fatalf("%s: StatusOK but data rewritten", code.Name())
				}
			case StatusCorrected, StatusDetected:
			default:
				t.Fatalf("%s: unknown status %v", code.Name(), st)
			}
			if patternWeight(flipData, flipCheck) == 1 && (st != StatusCorrected || got != data) {
				t.Fatalf("%s: single-bit flip not corrected (%v)", code.Name(), st)
			}
		}
	})
}

// FuzzCRC8Miscorrection pins the shape of CRC8-ATM mis-correction, the
// hazard Table II quantifies. For an arbitrary corruption pattern:
// weight-1 corrects exactly, weight-2 always detects (HD >= 4), and
// whenever Decode claims StatusCorrected the result must actually be a
// codeword one bit-flip away from the received word — a mis-correction is
// allowed to pick the *wrong* codeword, never a non-codeword.
func FuzzCRC8Miscorrection(f *testing.F) {
	code := NewCRC8ATM()
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(0x0123456789abcdef), uint64(0b11), uint8(0))
	f.Add(^uint64(0), uint64(1)<<63, uint8(1))
	f.Add(uint64(42), uint64(0xf0), uint8(0x0f))
	f.Fuzz(func(t *testing.T, data, flipData uint64, flipCheck uint8) {
		clean := code.Encode(data)
		bad := clean.FlipMask(flipData, flipCheck)
		got, st := code.Decode(bad)
		weight := patternWeight(flipData, flipCheck)
		switch weight {
		case 0:
			if st != StatusOK || got != data {
				t.Fatalf("clean word: (%#x, %v)", got, st)
			}
		case 1:
			if st != StatusCorrected || got != data {
				t.Fatalf("weight-1: (%#x, %v), want exact correction", got, st)
			}
		case 2:
			if st != StatusDetected {
				t.Fatalf("weight-2 flip (%#x, %#x): status %v, want detected", flipData, flipCheck, st)
			}
		default:
			if st == StatusCorrected {
				// A claimed correction must land on a real codeword
				// reachable by one flip from the received word.
				recoded := code.Encode(got)
				d := patternWeight(recoded.Data^bad.Data, recoded.Check^bad.Check)
				if d > 1 {
					t.Fatalf("weight-%d mis-correction to %#x is %d flips from received word", weight, got, d)
				}
			}
		}
		if weight > 0 && st == StatusOK && bad != clean {
			// Only full codeword-difference patterns may alias to clean.
			if !code.IsValid(bad) {
				t.Fatalf("StatusOK on invalid codeword (weight %d)", weight)
			}
		}
	})
}

// FuzzLinearCodeVsNaive is the differential oracle for the one codec:
// for every code in testCodes, LinearCode64 must agree with the naive
// definitional codec of linear_test.go — same check byte from Encode, same
// validity verdict, same Decode status AND same (possibly mis-corrected)
// data — for every data word and every corruption pattern. The naive codec
// keeps each code's textbook single-error rule, so this also checks that
// Decode's one rule loses nothing by having no parity gate.
func FuzzLinearCodeVsNaive(f *testing.F) {
	codes := testCodes()
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(uint64(0xdeadbeefcafebabe), uint64(1)<<13, uint8(0x80))
	f.Add(uint64(0x0123456789abcdef), uint64(0b11), uint8(0))
	f.Add(^uint64(0), uint64(0xf0f0), uint8(0x0f))
	f.Add(uint64(42), uint64(0), uint8(0xff))
	f.Fuzz(func(t *testing.T, data, flipData uint64, flipCheck uint8) {
		for _, tc := range codes {
			compareNaive(t, tc, data, flipData, flipCheck)
		}
	})
}

func patternWeight(d uint64, c uint8) int {
	n := 0
	for x := d; x != 0; x &= x - 1 {
		n++
	}
	for x := c; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// FuzzRSErasureRoundTrip: the errors-and-erasures decoder must recover
// any corruption confined to <= R erased positions, exactly, at every
// position pair — the §IX-A XED+Chipkill contract.
func FuzzRSErasureRoundTrip(f *testing.F) {
	rs := NewChipkill() // RS(16,2)
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint8(17), uint8(0xff), uint8(0x80))
	f.Add(make([]byte, 16), uint8(5), uint8(5), uint8(1), uint8(0))
	f.Add([]byte{0xaa}, uint8(16), uint8(17), uint8(0x55), uint8(0x55))
	f.Fuzz(func(t *testing.T, seedData []byte, posA, posB, valA, valB uint8) {
		n := rs.K + rs.R
		data := make([]uint8, rs.K)
		copy(data, seedData)
		clean := rs.Encode(data)
		bad := make([]uint8, n)
		copy(bad, clean)
		i, j := int(posA)%n, int(posB)%n
		bad[i] ^= valA
		erasures := []int{i}
		if j != i {
			bad[j] ^= valB
			erasures = append(erasures, j)
		}
		fixed, err := rs.CorrectErasuresOnly(bad, erasures)
		if err != nil {
			t.Fatalf("erasures %v: %v", erasures, err)
		}
		for k := range clean {
			if fixed[k] != clean[k] {
				t.Fatalf("erasures %v: symbol %d = %#x, want %#x", erasures, k, fixed[k], clean[k])
			}
		}
		// The pure-erasure path must agree with the general decoder when
		// the corruption is within its correction radius.
		if len(erasures) == 1 || valB == 0 {
			decoded, st := rs.DecodeErasures(bad, nil)
			if valA == 0 && (j == i || valB == 0) {
				if st != StatusOK {
					t.Fatalf("clean word decoded as %v", st)
				}
			} else if st == StatusCorrected {
				for k := range clean {
					if decoded[k] != clean[k] {
						t.Fatalf("Decode and erasure decode disagree at symbol %d", k)
					}
				}
			}
		}
	})
}

// FuzzRSDecode: the Reed-Solomon decoder must never panic or accept an
// uncorrectable word as clean, whatever garbage arrives.
func FuzzRSDecode(f *testing.F) {
	rs := NewChipkill()
	f.Add([]byte{1, 2, 3}, uint8(0), uint8(0))
	f.Add(make([]byte, 18), uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, seedData []byte, errPos, errVal uint8) {
		data := make([]uint8, rs.K)
		copy(data, seedData)
		cw := rs.Encode(data)
		if !rs.IsValid(cw) {
			t.Fatal("encode invalid")
		}
		bad := make([]uint8, len(cw))
		copy(bad, cw)
		bad[int(errPos)%len(bad)] ^= errVal
		fixed, st := rs.DecodeErasures(bad, nil)
		if errVal == 0 {
			if st != StatusOK {
				t.Fatalf("clean word status %v", st)
			}
			return
		}
		if st != StatusCorrected {
			t.Fatalf("single symbol error status %v", st)
		}
		for i := range cw {
			if fixed[i] != cw[i] {
				t.Fatalf("mis-corrected symbol %d", i)
			}
		}
	})
}
