package memsim

// bankState tracks one bank's open row and earliest-next-command times.
// The simulator uses an issue-at-once discipline: when the scheduler picks
// a request it computes the whole ACT/CAS/data schedule against these
// horizons and advances them, which models JEDEC constraints faithfully
// while keeping the hot loop cheap.
type bankState struct {
	openRow int // -1 when precharged
	// nextAct is the earliest cycle an ACT may issue (tRC/tRP bound).
	nextAct int64
	// nextCAS is the earliest cycle a column command may issue.
	nextCAS int64
	// nextPre is the earliest cycle a precharge may issue (tRAS/tWR/tRTP).
	nextPre int64
	// reserved blocks further precharges until the row opened for a
	// waiting request has served its CAS, preventing prepare-phase
	// thrash between conflicting requests.
	reserved bool
}

// rankState aggregates a rank's banks plus rank-wide constraints.
type rankState struct {
	banks []bankState
	// actTimes rings the last four ACTs for the tFAW window.
	actTimes [4]int64
	actIdx   int
	// lastAct drives the tRRD ACT-to-ACT spacing within the rank.
	lastAct int64
	// lastWriteEnd drives the tWTR write-to-read turnaround.
	lastWriteEnd int64
	// refreshUntil blocks the rank during tRFC.
	refreshUntil int64
	// Power accounting.
	activates    int64
	readCycles   int64
	writeCycles  int64
	activeCycles int64 // approximate row-open time (tRAS per ACT)
	refreshes    int64
}

// channelState holds a channel's ranks, queues and shared data bus.
type channelState struct {
	ranks  []rankState
	readQ  queue
	writeQ queue
	// busFreeAt is when the shared data bus next idles.
	busFreeAt int64
	// lastBusRank/-Write support tRTRS and turnaround penalties.
	lastBusRank  int
	lastBusWrite bool
	// draining flips under the write watermark policy.
	draining bool
	// wake is the first cycle at which the gang's scheduler must run
	// again; before it no queued request can take a command.
	wake int64
	// nextRefresh schedules the staggered per-rank refresh.
	nextRefresh int64
	refreshRank int
}

func newChannel(ranks, banks int) *channelState {
	ch := &channelState{ranks: make([]rankState, ranks)}
	for r := range ch.ranks {
		rank := &ch.ranks[r]
		rank.banks = make([]bankState, banks)
		for b := range rank.banks {
			rank.banks[b].openRow = -1
		}
		// The tFAW window must not constrain the first four activates.
		for i := range rank.actTimes {
			rank.actTimes[i] = -(1 << 40)
		}
		rank.lastAct = -(1 << 40)
	}
	return ch
}

// fawReady returns the earliest cycle a new ACT may issue under tFAW.
func (r *rankState) fawReady(tFAW int) int64 {
	oldest := r.actTimes[r.actIdx]
	return oldest + int64(tFAW)
}

func (r *rankState) recordAct(t int64, tRAS int) {
	r.actTimes[r.actIdx] = t
	r.actIdx = (r.actIdx + 1) % 4
	r.lastAct = t
	r.activates++
	r.activeCycles += int64(tRAS)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
