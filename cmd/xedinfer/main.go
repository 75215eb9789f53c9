// Command xedinfer reverse-engineers a black-box chip's on-die ECC, the
// BEER/HARP related-work scenario (internal/infer): the on-die code is
// unknown and must be inferred from bus-visible behaviour alone.
//
//	xedinfer                              # BEER + HARP against a random code
//	xedinfer -experiment beer -code crc8  # recover a known code's H-matrix
//	xedinfer -experiment beer -code random:7 -dump-h
//	xedinfer -experiment harp -words 64 -weak 6 -rounds 16
//
// The beer experiment builds a chip around the selected code, runs the
// check-bit probe sweep and reports whether the recovered parity-check
// matrix matches the truth bit for bit (canonical form for codes whose
// check columns are not the identity). The harp experiment plants
// correctable and uncorrectable permanent faults in a chip, profiles it,
// and reports how the post-correction predictions compare to the plants.
//
// Exit status: 0 success, 1 inference failed or predictions missed,
// 2 flag errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"xedsim/internal/cli"
	"xedsim/internal/dram"
	"xedsim/internal/ecc"
	"xedsim/internal/faultsim"
	"xedsim/internal/infer"
	"xedsim/internal/simrand"
)

const cmd cli.Command = "xedinfer"

// cliArgs holds every flag's value. validateArgs checks it apart from flag
// parsing, so the exit-2 usage convention is unit-testable.
type cliArgs struct {
	experiment string
	code       string
	words      int
	weak       int
	broken     int
	rounds     int
	seed       uint64
	dumpH      bool
}

// validateArgs returns the message cmd.UsageErr should print, or nil.
func validateArgs(a cliArgs) error {
	switch a.experiment {
	case "all", "beer", "harp":
	default:
		return fmt.Errorf("unknown experiment %q (want beer, harp or all)", a.experiment)
	}
	if _, err := faultsim.ParseOnDieCode(a.code); err != nil {
		return err
	}
	if a.words <= 0 {
		return fmt.Errorf("-words must be positive, got %d", a.words)
	}
	if a.weak < 0 || a.broken < 0 {
		return fmt.Errorf("-weak and -broken must be >= 0, got %d and %d", a.weak, a.broken)
	}
	if a.weak+a.broken > a.words {
		return fmt.Errorf("-weak (%d) plus -broken (%d) exceeds -words (%d)", a.weak, a.broken, a.words)
	}
	if a.rounds <= 0 {
		return fmt.Errorf("-rounds must be positive, got %d", a.rounds)
	}
	return nil
}

func main() {
	var a cliArgs
	flag.StringVar(&a.experiment, "experiment", "all", "beer|harp|all")
	flag.StringVar(&a.code, "code", "random:1", "on-die code under test: crc8|hamming|hsiao|random:<seed>")
	flag.IntVar(&a.words, "words", 32, "words profiled by the harp experiment")
	flag.IntVar(&a.weak, "weak", 4, "profiled words planted with a correctable single-bit fault")
	flag.IntVar(&a.broken, "broken", 2, "profiled words planted with an uncorrectable double-bit fault")
	flag.IntVar(&a.rounds, "rounds", 8, "random test patterns per probe sweep / profiled word")
	flag.Uint64Var(&a.seed, "seed", 1, "random seed")
	flag.BoolVar(&a.dumpH, "dump-h", false, "print the true and recovered parity-check matrices")
	cmd.Parse()
	if err := validateArgs(a); err != nil {
		cmd.UsageErr("%v", err)
	}
	code, _ := faultsim.ParseOnDieCode(a.code) // validated above

	ok := true
	switch a.experiment {
	case "all":
		ok = runBEER(code, a)
		fmt.Println()
		ok = runHARP(code, a) && ok
	case "beer":
		ok = runBEER(code, a)
	case "harp":
		ok = runHARP(code, a)
	}
	if !ok {
		os.Exit(1)
	}
}

func inferGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 64, ColsPerRow: 16}
}

// runBEER recovers the code's parity-check matrix from a black-box chip
// and compares it to the truth.
func runBEER(code *ecc.LinearCode64, a cliArgs) bool {
	fmt.Printf("BEER-style recovery: on-die code %s\n", code.Name())
	chip := dram.NewChip(inferGeom(), code)
	got, ev, err := infer.RecoverHMatrix(chip, infer.BEEROptions{Rounds: a.rounds, Seed: a.seed})
	if err != nil {
		fmt.Printf("  recovery failed: %v\n", err)
		return false
	}
	fmt.Printf("  %d probes over %d data-pattern families pinned all 64 data columns\n",
		ev.ProbeCount, ev.Families)

	want, err := code.Matrix().Canonical()
	if err != nil {
		fmt.Printf("  true matrix has no canonical form: %v\n", err)
		return false
	}
	if a.dumpH {
		fmt.Printf("  true (canonical): %v\n", want)
		fmt.Printf("  recovered:        %v\n", got)
	}
	if got != want {
		fmt.Println("  MISMATCH: recovered matrix differs from the true canonical form")
		return false
	}
	fmt.Println("  recovered H equals the true canonical H bit for bit")
	return true
}

// runHARP plants faults, profiles the chip and scores the predictions.
func runHARP(code ecc.Code64, a cliArgs) bool {
	fmt.Printf("HARP-style profiling: on-die code %s, %d words (%d weak, %d broken)\n",
		code.Name(), a.words, a.weak, a.broken)
	chip := dram.NewChip(inferGeom(), code)
	geom := chip.Geometry()
	rng := simrand.New(a.seed)

	addrs := make([]dram.WordAddr, 0, a.words)
	used := map[dram.WordAddr]bool{}
	for len(addrs) < a.words {
		w := dram.WordAddr{Bank: rng.Intn(geom.Banks), Row: rng.Intn(geom.RowsPerBank), Col: rng.Intn(geom.ColsPerRow)}
		if !used[w] {
			used[w] = true
			addrs = append(addrs, w)
		}
	}
	wantRisk := map[dram.WordAddr]bool{}
	wantUncorr := map[dram.WordAddr]bool{}
	for i := 0; i < a.weak; i++ {
		chip.InjectFault(dram.NewBitFault(addrs[i], rng.Intn(64), false))
		wantRisk[addrs[i]] = true
	}
	for i := a.weak; i < a.weak+a.broken; i++ {
		bitA := rng.Intn(64)
		bitB := (bitA + 1 + rng.Intn(63)) % 64
		chip.InjectFault(dram.NewWordFault(addrs[i], 1<<uint(bitA)|1<<uint(bitB), 0, false))
		wantRisk[addrs[i]] = true
		wantUncorr[addrs[i]] = true
	}

	p := infer.ProfileChip(chip, addrs, infer.HARPOptions{Rounds: a.rounds, Seed: a.seed + 1})
	uncorr := p.PredictUncorrectable()
	risk := p.PredictAtRisk()
	fmt.Printf("  profiled %d words x %d reads: %d at-risk, %d uncorrectable\n",
		len(p.Words), p.Words[0].Reads, len(risk), len(uncorr))

	score := func(name string, got []dram.WordAddr, want map[dram.WordAddr]bool) bool {
		missed, extra := len(want), 0
		for _, w := range got {
			if want[w] {
				missed--
			} else {
				extra++
			}
		}
		fmt.Printf("  %s: %d/%d planted flagged, %d false positives\n", name, len(want)-missed, len(want), extra)
		return missed == 0 && extra == 0
	}
	ok := score("uncorrectable", uncorr, wantUncorr)
	ok = score("at-risk", risk, wantRisk) && ok
	if ok {
		fmt.Println("  predictions match the planted faults exactly")
	}
	return ok
}
