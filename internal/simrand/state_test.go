package simrand

import (
	"errors"
	"testing"
)

func TestStateRoundTrip(t *testing.T) {
	src := New(12345)
	for i := 0; i < 17; i++ {
		src.Uint64() // advance off the seed point
	}
	st := src.State()
	var want [32]uint64
	for i := range want {
		want[i] = src.Uint64()
	}

	restored, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := restored.Uint64(); got != want[i] {
			t.Fatalf("draw %d: restored source produced %#x, want %#x", i, got, want[i])
		}
	}

	// SetState on a live source rewinds it the same way.
	if err := src.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := src.Uint64(); got != want[i] {
			t.Fatalf("draw %d after SetState: %#x, want %#x", i, got, want[i])
		}
	}
}

func TestStateSnapshotIsValueCopy(t *testing.T) {
	src := New(7)
	st := src.State()
	src.Uint64()
	if st != New(7).State() {
		t.Fatal("advancing the source disturbed an earlier snapshot")
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	var src Source
	if err := src.SetState(State{}); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("err = %v, want ErrInvalidState", err)
	}
	if _, err := Restore(State{}); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("Restore err = %v, want ErrInvalidState", err)
	}
}

func TestStreamsAreDistinct(t *testing.T) {
	// Distinct streams of one seed, and one stream under distinct seeds,
	// must not collide on their opening draws.
	seen := map[uint64]string{}
	record := func(label string, seed, stream uint64) {
		var s Source
		s.SeedStream(seed, stream)
		v := s.Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %s and %s opened with the same draw %#x", prev, label, v)
		}
		seen[v] = label
	}
	for stream := uint64(0); stream < 64; stream++ {
		record("seed42/"+string(rune('a'+stream%26)), 42, stream)
	}
	for seed := uint64(100); seed < 164; seed++ {
		record("stream7", seed, 7)
	}
}

func TestSeedStreamIsInPlace(t *testing.T) {
	// The campaign engine reseeds once per chunk on the hot path; it must
	// not allocate.
	var src Source
	n := testing.AllocsPerRun(100, func() {
		src.SeedStream(1, 2)
		_ = src.Uint64()
	})
	if n != 0 {
		t.Fatalf("SeedStream allocates %v per run", n)
	}
}
