//go:build !race

package fleet

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random and allocation counts mean nothing.
const raceEnabled = false
