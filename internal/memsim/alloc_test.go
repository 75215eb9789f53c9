package memsim

import "testing"

// TestRunAllocsFlat pins the steady state allocation-free: a run ten
// times longer allocates only what set-up and the queues' growth to their
// peak take, not an object per request, ROB entry, trace op or cycle.
func TestRunAllocsFlat(t *testing.T) {
	cfg := DefaultConfig(mustWorkload(t, "libquantum"), SECDEDScheme())
	allocs := func(instr int64) float64 {
		cfg.InstrPerCore = instr
		return testing.AllocsPerRun(1, func() { New(cfg).Run() })
	}
	short, long := allocs(40_000), allocs(400_000)
	t.Logf("allocations: %v at 40k instructions per core, %v at 400k", short, long)
	if long > 1000 || long > 1.5*short {
		t.Fatalf("%v allocations at 400k instructions per core (%v at 40k); want at most 1000 and 1.5x the 40k count", long, short)
	}
}
