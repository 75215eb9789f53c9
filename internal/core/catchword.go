package core

import (
	"xedsim/internal/dram"
	"xedsim/internal/simrand"
)

// catchWords is a controller's copy of every chip's Catch-Word Register
// (§V-A), for a gang of any width. A chip whose on-die engine detects or
// corrects an error drives its catch-word onto the bus in place of data,
// so the controller sees chip i flag a read when bus word i equals
// words[i].
type catchWords struct {
	rank  *dram.Rank
	rng   *simrand.Source
	words []uint64
}

// bootCatchWords is the §V-A boot flow: it draws one random catch-word per
// chip from a source seeded with seed, programs each into its chip over
// MRS and sets XED-Enable on the whole rank.
func bootCatchWords(rank *dram.Rank, seed uint64) catchWords {
	cw := catchWords{rank: rank, rng: simrand.New(seed), words: make([]uint64, rank.Chips())}
	for i := range cw.words {
		cw.words[i] = cw.rng.Uint64()
		rank.Chip(i).SetCatchWord(cw.words[i])
	}
	rank.SetXEDEnable(true)
	return cw
}

// matches reports whether w is chip i's catch-word.
func (cw *catchWords) matches(i int, w uint64) bool { return w == cw.words[i] }

// flagged appends to into every chip whose bus word on line, one read
// result per chip, is its catch-word.
func (cw *catchWords) flagged(line []dram.ReadResult, into []int) []int {
	for i, r := range line {
		if cw.matches(i, r.Data) {
			into = append(into, i)
		}
	}
	return into
}

// collision handles a §V-D collision on chip k: the data the controller
// just corrected equals the chip's catch-word, so the chip was healthy and
// the correction needless. It counts the collision and gives chip k a
// fresh catch-word over MRS, redrawing until the word changes, so the
// expected time between collisions stays ~3.2M years (§V-D3). No data or
// ECC rewrite is needed.
func (cw *catchWords) collision(k int, s *Stats) {
	s.Collisions++
	next := cw.rng.Uint64()
	for next == cw.words[k] {
		next = cw.rng.Uint64()
	}
	cw.words[k] = next
	cw.rank.Chip(k).SetCatchWord(next)
	s.CatchWordUpdates++
}
