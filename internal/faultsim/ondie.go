package faultsim

import (
	"fmt"
	"strconv"
	"strings"

	"xedsim/internal/ecc"
	"xedsim/internal/simrand"
)

// This file bridges the abstract fault model to concrete on-die codes.
// The Monte-Carlo campaign abstracts On-Die ECC into one number —
// Config.SilentWordFraction, the chance a multi-bit word error escapes the
// code undetected (0.008 for the paper's CRC8-ATM per Table II). With the
// generic ecc.LinearCode64 engine any code can sit on-die, including a
// mismatched or BEER-recovered one, so campaigns need that number measured
// from the code's real syndrome behaviour rather than hard-coded.

// ParseOnDieCode resolves an on-die code spec to a working codec:
//
//	crc8            the paper's recommended CRC8-ATM (§V-E)
//	hamming         the conventional baseline
//	hsiao           the odd-weight-column commercial code
//	random:<seed>   a RandomSECDED draw in canonical form
//
// An empty spec selects crc8, matching DefaultConfig's assumption.
func ParseOnDieCode(spec string) (*ecc.LinearCode64, error) {
	switch spec {
	case "", "crc8":
		return ecc.NewCRC8ATM(), nil
	case "hamming":
		return ecc.NewHamming(), nil
	case "hsiao":
		return ecc.NewHsiao(), nil
	}
	if rest, ok := strings.CutPrefix(spec, "random:"); ok {
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultsim: on-die code %q: seed %q is not a uint64", spec, rest)
		}
		return ecc.RandomSECDED(simrand.New(seed)), nil
	}
	return nil, fmt.Errorf("faultsim: unknown on-die code %q (want crc8, hamming, hsiao or random:<seed>)", spec)
}

// SilentWordFractionFor measures the Config.SilentWordFraction a campaign
// should use for the given on-die code: the worst even-weight miss rate of
// its real syndrome tables (the quantity the paper's 0.8% figure reports
// for CRC8-ATM). samples bounds the Monte-Carlo sampling of the pattern
// weights too large to enumerate; seed makes the measurement reproducible.
func SilentWordFractionFor(code *ecc.LinearCode64, samples int, seed uint64) float64 {
	return ecc.UndetectedMultiBitFraction(ecc.MeasureDetection(code, samples, seed))
}
