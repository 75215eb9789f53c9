package faultsim

import (
	"math"
	"testing"

	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

func TestKindStrings(t *testing.T) {
	for _, k := range []FailKind{FailNone, FailDUE, FailSDC} {
		if k.String() == "" || k.String() == "FailKind(?)" {
			t.Fatalf("bad string for %d", int(k))
		}
	}
}

func TestNonECCFailuresAreSDC(t *testing.T) {
	cfg := DefaultConfig()
	r := mkRec(0, 0, 0, dram.GranBank, false, 100, cfg.LifetimeHours)
	ft, kind := NewNonECC().FailTimeKind(&cfg, []FaultRecord{r})
	if math.IsInf(ft, 1) || kind != FailSDC {
		t.Fatalf("ft=%v kind=%v, want SDC at 100", ft, kind)
	}
}

func TestXEDFailuresAreDUE(t *testing.T) {
	cfg := DefaultConfig()
	// Pair failure.
	a := mkRec(0, 0, 1, dram.GranBank, false, 100, cfg.LifetimeHours)
	b := mkRec(0, 0, 5, dram.GranBank, false, 200, cfg.LifetimeHours)
	_, kind := NewXED().FailTimeKind(&cfg, []FaultRecord{a, b})
	if kind != FailDUE {
		t.Fatalf("XED pair kind = %v, want DUE", kind)
	}
	// Silent transient word: still detected via parity mismatch.
	s := mkRec(0, 0, 2, dram.GranWord, true, 50, 60)
	s.Silent = true
	_, kind = NewXED().FailTimeKind(&cfg, []FaultRecord{s})
	if kind != FailDUE {
		t.Fatalf("XED silent-word kind = %v, want DUE", kind)
	}
}

func TestXEDChipkillSilentPlusFlaggedIsSDC(t *testing.T) {
	cfg := DefaultConfig()
	silent := mkRec(0, 0, 2, dram.GranWord, false, 100, cfg.LifetimeHours)
	silent.Silent = true
	flagged := mkRec(0, 1, 4, dram.GranBank, false, 200, cfg.LifetimeHours)
	_, kind := NewXEDChipkill().FailTimeKind(&cfg, []FaultRecord{silent, flagged})
	if kind != FailSDC {
		t.Fatalf("kind = %v, want SDC (erasures consume all redundancy)", kind)
	}
	// Three flagged chips: overload is detected.
	c := mkRec(0, 0, 7, dram.GranBank, false, 300, cfg.LifetimeHours)
	d := mkRec(0, 1, 8, dram.GranRow, false, 300, cfg.LifetimeHours)
	e := mkRec(0, 0, 3, dram.GranColumn, false, 350, cfg.LifetimeHours)
	_, kind = NewXEDChipkill().FailTimeKind(&cfg, []FaultRecord{c, d, e})
	if kind == FailNone {
		t.Fatal("three flagged chips should fail")
	}
}

func TestSECDEDKindSplit(t *testing.T) {
	// Over many failures the SECDED DUE/SDC split should approximate
	// the mis-correction constant.
	cfg := DefaultConfig()
	rep, err := Run(cfg, []Scheme{NewSECDED()}, 150_000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.DUEs+res.SDCs != res.Failures {
		t.Fatalf("kinds (%d+%d) do not partition failures (%d)", res.DUEs, res.SDCs, res.Failures)
	}
	frac := float64(res.SDCs) / float64(res.Failures)
	if frac < secdedMiscorrectProb*0.8 || frac > secdedMiscorrectProb*1.2 {
		t.Fatalf("SECDED SDC fraction %v, want ≈%v", frac, secdedMiscorrectProb)
	}
}

// TestRSMiscorrectionConstants holds the Chipkill and Double-Chipkill
// mis-correction constants to the decoders they stand for: random
// two-symbol errors through RS(18,16) and random three-symbol errors
// through RS(36,32), with no erasures, at a fixed seed. A pattern the
// decoder reports as corrected is a mis-correction; none is a codeword, so
// none decodes clean.
//
// An RS code of distance d = 2t+1 is MDS, with A_d = C(n,d)(q-1) codewords
// of weight d, and a bounded-distance decoder mis-corrects a (t+1)-symbol
// error exactly when it agrees with one of them on its support: a rate of
// A_d C(d,t+1) / (C(n,t+1) (q-1)^(t+1)), 0.0627 for RS(18,16) and 0.00812
// for RS(36,32). The measured rate must match it within four standard
// errors, and each constant must lie within 25 % of it. Double-Chipkill's
// 0.01 is the random-syndrome fraction, 23 % above the three-symbol rate.
func TestRSMiscorrectionConstants(t *testing.T) {
	const patterns = 200_000
	rng := simrand.New(11)
	for _, tc := range []struct {
		name     string
		rs       *ecc.RS
		constant float64
	}{
		{"RS(18,16)", ecc.NewChipkill(), chipkillMiscorrectProb},
		{"RS(36,32)", ecc.NewDoubleChipkill(), dblCKMiscorrectProb},
	} {
		n, d := tc.rs.K+tc.rs.R, tc.rs.R+1
		symbols := tc.rs.R/2 + 1
		exact := binom(n, d) * 255 * binom(d, symbols) / (binom(n, symbols) * math.Pow(255, float64(symbols)))

		dec := tc.rs.NewDecoder()
		data := make([]uint8, tc.rs.K)
		cw := make([]uint8, n)
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i
		}
		miscorrected := 0
		for range patterns {
			for i := range data {
				data[i] = uint8(rng.Uint64())
			}
			tc.rs.EncodeInto(data, cw)
			for i := range symbols { // distinct symbols: a partial shuffle
				j := i + rng.Intn(n-i)
				pos[i], pos[j] = pos[j], pos[i]
				cw[pos[i]] ^= uint8(1 + rng.Intn(255))
			}
			if dec.DecodeErasures(cw, nil) != ecc.StatusDetected {
				miscorrected++
			}
		}
		got := float64(miscorrected) / patterns
		if se := math.Sqrt(exact * (1 - exact) / patterns); math.Abs(got-exact) > 4*se {
			t.Errorf("%s: %d-symbol errors mis-correct at %.4g, want %.4g ± %.2g", tc.name, symbols, got, exact, 4*se)
		}
		if math.Abs(tc.constant-exact) > 0.25*exact {
			t.Errorf("%s: the constant %.4g is not within 25%% of the mis-correction rate %.4g", tc.name, tc.constant, exact)
		}
	}
}

// binom is the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	c := 1.0
	for i := range k {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

func TestXEDDUEMatchesTableIV(t *testing.T) {
	// Monte-Carlo cross-check of Table IV: XED's DUE rate from silent
	// transient word faults. Per rank over 7 years the paper computes
	// 6.1e-6; our fleet has 8 ranks, so the per-system rate is ~4.9e-5
	// of which silent-transient-words are the only single-fault DUEs.
	// Pair-failures are also DUEs, so bound from below using a run with
	// word faults only.
	cfg := DefaultConfig()
	cfg.FITs = FITTable{{dram.GranWord, true, 1.4}}
	const trials = 12_000_000
	rep, err := Run(cfg, []Scheme{NewXED()}, trials, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.SDCs != 0 {
		t.Fatalf("XED reported %d SDCs", res.SDCs)
	}
	got := res.DUEProbability()
	want := 1.4e-9 * cfg.LifetimeHours * float64(cfg.TotalChips()) * cfg.SilentWordFraction
	if got < want*0.5 || got > want*1.6 {
		t.Fatalf("XED DUE probability %v, want ≈%v (Table IV scaled to the fleet)", got, want)
	}
}

func TestEventHashDeterministicAndUniformish(t *testing.T) {
	r := mkRec(1, 0, 3, dram.GranRow, false, 1234.5, 99999)
	if eventHash(&r) != eventHash(&r) {
		t.Fatal("hash not deterministic")
	}
	// Different records hash differently and stay in [0,1).
	sum := 0.0
	n := 0
	for chip := 0; chip < 9; chip++ {
		for ch := 0; ch < 4; ch++ {
			for i := 0; i < 50; i++ {
				rec := mkRec(ch, i%2, chip, dram.GranBank, false, float64(i)*37.7, 99999)
				h := eventHash(&rec)
				if h < 0 || h >= 1 {
					t.Fatalf("hash out of range: %v", h)
				}
				sum += h
				n++
			}
		}
	}
	if mean := sum / float64(n); mean < 0.4 || mean > 0.6 {
		t.Fatalf("hash mean %v, want ≈0.5", mean)
	}
}
