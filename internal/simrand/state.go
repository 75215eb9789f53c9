package simrand

import "errors"

// State is the complete serializable state of a Source: the four xoshiro256**
// words. A captured State replays the generator's future exactly, which is
// what lets a Monte-Carlo campaign checkpoint mid-stream and lets a
// TrialError carry everything needed to regenerate one trial in isolation.
type State [4]uint64

// State snapshots the generator. The snapshot is a value copy; advancing s
// afterwards does not disturb it.
func (s *Source) State() State {
	return State{s.s0, s.s1, s.s2, s.s3}
}

// ErrInvalidState rejects the all-zero state, which xoshiro256** can never
// reach and from which it would emit zeros forever.
var ErrInvalidState = errors.New("simrand: all-zero state is not a valid xoshiro256** state")

// SetState restores a previously captured State. The zero State is invalid.
func (s *Source) SetState(st State) error {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		return ErrInvalidState
	}
	s.s0, s.s1, s.s2, s.s3 = st[0], st[1], st[2], st[3]
	return nil
}

// Restore returns a Source continuing from a captured State.
func Restore(st State) (*Source, error) {
	var s Source
	if err := s.SetState(st); err != nil {
		return nil, err
	}
	return &s, nil
}

// streamKey folds a logical (seed, stream) pair into one 64-bit seed with a
// splitmix64 finalizer round. Distinct streams of one seed — and the same
// stream index under distinct seeds — land on uncorrelated keys, and the
// 4-round splitmix64 expansion in seed() scrambles them further.
func streamKey(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeedStream reinitialises s in place as substream `stream` of the logical
// seed. It is the campaign engine's stream-splitting primitive: every chunk
// of trials owns substream(campaignSeed, chunkIndex), so the trial sequence
// is a pure function of (seed, chunk layout) and entirely independent of
// how chunks are scheduled across workers. Reseeding in place keeps the hot
// loop allocation-free (New escapes to the heap).
func (s *Source) SeedStream(seed, stream uint64) {
	s.seed(streamKey(seed, stream))
}
