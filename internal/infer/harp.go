package infer

import (
	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

// HARPOptions configures a ProfileChip pass.
type HARPOptions struct {
	// Rounds is the number of random test patterns written and read back
	// per word, on top of the four structured backgrounds. <= 0 means 8.
	Rounds int
	// Seed drives the random patterns.
	Seed uint64
}

// WordProfile is one word's profiling outcome.
type WordProfile struct {
	Addr dram.WordAddr
	// Direct accumulates post-correction error bits: data bits that read
	// back wrong through the conventional (XED-off) path, i.e. errors the
	// on-die code failed to correct — HARP's "direct errors". Any set bit
	// means the word is uncorrectable by the on-die code alone.
	Direct uint64
	// Activity counts reads on which the on-die engine corrected or
	// detected something, observed through the XED catch-word convention.
	// Activity without direct errors marks an at-risk word: the on-die
	// code is still coping, and one more fault makes it uncorrectable.
	Activity int
	// Reads is the number of read-back rounds performed.
	Reads int
}

// Uncorrectable reports whether post-correction errors were observed.
func (w *WordProfile) Uncorrectable() bool { return w.Direct != 0 }

// AtRisk reports whether the on-die engine showed any error activity,
// including words already uncorrectable.
func (w *WordProfile) AtRisk() bool { return w.Activity > 0 || w.Direct != 0 }

// Profile is the outcome of profiling a set of words.
type Profile struct {
	Words []WordProfile
}

// ProfileChip runs a HARP-style active profiling pass over addrs: each
// word is written with test patterns and read back twice per round, once
// through the conventional path (post-correction data; a diff against the
// written pattern is a direct, on-die-uncorrectable error) and once with
// XED enabled (a catch-word read means the engine corrected or detected —
// error activity the conventional path hides). Writes re-encode the word
// and clear transient damage, so the profile targets resident permanent
// faults — exactly the errors that repeat at runtime.
//
// The pass restores the chip's XED-enable register before returning but
// consumes the usual stats and write-clock side effects of its accesses.
func ProfileChip(chip *dram.Chip, addrs []dram.WordAddr, opt HARPOptions) *Profile {
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	rng := simrand.New(opt.Seed)
	patterns := defaultPatterns()
	for i := 0; i < rounds; i++ {
		patterns = append(patterns, rng.Uint64())
	}
	// Act as the memory controller: program a random catch-word (like
	// core.Controller does) and enable XED for the activity reads,
	// restoring both registers on the way out.
	savedCatch := chip.CatchWord()
	catch := rng.Uint64()
	chip.SetCatchWord(catch)
	defer chip.SetCatchWord(savedCatch)
	savedXED := chip.XEDEnabled()
	chip.SetXEDEnable(true)
	defer chip.SetXEDEnable(savedXED)

	p := &Profile{Words: make([]WordProfile, len(addrs))}
	for i, a := range addrs {
		w := &p.Words[i]
		w.Addr = a
		for _, pat := range patterns {
			if pat == catch {
				continue // a catch-word-valued pattern would be ambiguous
			}
			chip.Write(a, pat)
			got, _ := chip.ReadRaw(a) // conventional path: post-correction data
			w.Direct |= got ^ pat
			if r := chip.Read(a); r.Data == catch {
				w.Activity++ // XED path: the engine corrected or detected
			}
			w.Reads++
		}
	}
	return p
}

// PredictUncorrectable returns the addresses whose profile shows
// post-correction errors — the words HARP-style profiling predicts will
// produce uncorrectable failures at runtime.
func (p *Profile) PredictUncorrectable() []dram.WordAddr {
	var out []dram.WordAddr
	for i := range p.Words {
		if p.Words[i].Uncorrectable() {
			out = append(out, p.Words[i].Addr)
		}
	}
	return out
}

// PredictAtRisk returns the addresses with any on-die error activity,
// a superset of PredictUncorrectable.
func (p *Profile) PredictAtRisk() []dram.WordAddr {
	var out []dram.WordAddr
	for i := range p.Words {
		if p.Words[i].AtRisk() {
			out = append(out, p.Words[i].Addr)
		}
	}
	return out
}
