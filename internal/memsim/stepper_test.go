package memsim

import (
	"fmt"
	"reflect"
	"testing"
)

// runEveryCycle is the every-cycle model Run must reproduce: each cycle it
// delivers completions, refreshes and schedules every base channel, and
// retires and fetches every core, whatever their wake cycles and sleep
// flags say.
func runEveryCycle(s *Simulator) Result {
	maxCycles := s.cfg.InstrPerCore * 400
	for {
		s.now++
		if s.now > maxCycles {
			panic(errWatchdog)
		}
		s.deliver()
		for ci := 0; ci < len(s.channels); ci += s.cfg.Scheme.ChannelsPerAccess {
			s.maybeRefresh(ci)
			s.maybeIssue(ci, s.channels[ci])
		}
		allDone := true
		for _, c := range s.cores {
			if c.done {
				continue
			}
			c.retire()
			if !c.done {
				c.fetch(s)
				allDone = false
			}
		}
		if allDone {
			return s.finish()
		}
	}
}

// outcome is a run's Result, or the value it panicked with.
type outcome struct {
	res   Result
	panic any
}

// capture runs run and records how it ended.
func capture(run func() Result) (o outcome) {
	defer func() { o.panic = recover() }()
	return outcome{res: run()}
}

// oracleMismatch runs cfg through Run and through the every-cycle oracle
// and says how the two ended differently, or returns "" when they agree.
// Both outliving the watchdog is agreement: a config the model itself
// cannot finish says nothing about the stepper.
func oracleMismatch(cfg Config) string {
	got := capture(New(cfg).Run)
	want := capture(func() Result { return runEveryCycle(New(cfg)) })
	if want.panic != nil && want.panic != errWatchdog {
		return fmt.Sprintf("every-cycle oracle panicked: %v", want.panic)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Run differs from the every-cycle oracle\n got %+v\nwant %+v", got, want)
	}
	return ""
}

// TestWakeMatchesEveryCycle holds Run to the every-cycle oracle on every
// config of the golden matrix.
func TestWakeMatchesEveryCycle(t *testing.T) {
	cases := goldenCases(testing.Short())
	for i, msg := range runCases(cases, oracleMismatch) {
		if msg != "" {
			t.Errorf("%s: %s", cases[i].key, msg)
		}
	}
}

// FuzzWakeVsEveryCycle holds Run to the every-cycle oracle on random
// valid configs: gangs that divide the channels and ranks, few rows to
// force conflicts, any write-queue watermarks, any correction latency and
// serial mode.
func FuzzWakeVsEveryCycle(f *testing.F) {
	f.Fuzz(func(t *testing.T, scheme, workload, channels, ranks, banks, rows, wqCap, drainHi, drainLo uint8,
		correction, serialEvery, cores uint8, instr uint16, seed uint64) {
		schemes := goldenSchemes()
		sc := schemes[int(scheme)%len(schemes)]
		sc.CorrectionCycles = int(correction % 61)
		if serialEvery > 0 {
			sc.SerialModeEvery = int(serialEvery)
		}
		ws := PaperWorkloads()
		cfg := DefaultConfig(ws[int(workload)%len(ws)], sc)
		cfg.Channels = sc.ChannelsPerAccess * (1 + int(channels%2))
		cfg.RanksPerChannel = sc.RanksPerAccess * (1 + int(ranks%2))
		cfg.BanksPerRank = 1 << (banks % 4)
		cfg.RowsPerBank = 1 + int(rows%16)
		cfg.WriteQueueCap = 1 + int(wqCap%64)
		cfg.DrainHi = 1 + int(drainHi)%cfg.WriteQueueCap
		cfg.DrainLo = int(drainLo) % cfg.DrainHi
		cfg.Cores = 1 + int(cores%8)
		cfg.InstrPerCore = 1000 + int64(instr%4000)
		cfg.Seed = seed
		if msg := oracleMismatch(cfg); msg != "" {
			t.Fatalf("%+v: %s", cfg, msg)
		}
	})
}
