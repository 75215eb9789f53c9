package memsim

import (
	"context"
	"fmt"
	"math"

	"xedsim/internal/obs"
	"xedsim/internal/simrand"
)

// Config assembles one simulation: the Table V system (DDR3-1600 with an
// FR-FCFS, open-page controller and staggered auto-refresh), a workload
// run in rate mode on every core, and a reliability scheme's resource
// mapping.
type Config struct {
	Timing Timing

	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowsPerBank     int
	ColsPerRow      int

	Cores        int
	InstrPerCore int64

	WriteQueueCap int
	DrainHi       int
	DrainLo       int

	Scheme   SchemeConfig
	Workload Workload
	Seed     uint64

	// Metrics, when non-nil, publishes live counters under "memsim.*"
	// names: demand traffic, a read-latency histogram (bus cycles) and
	// bank conflicts (activations that had to close another row first).
	Metrics *obs.Registry
}

// DefaultConfig is the paper's baseline system (Table V) at a trace length
// suitable for regression runs; the experiment CLIs raise InstrPerCore.
func DefaultConfig(w Workload, s SchemeConfig) Config {
	return Config{
		Timing:          DDR31600(),
		Channels:        4,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowsPerBank:     32768,
		ColsPerRow:      128,
		Cores:           8,
		InstrPerCore:    300_000,
		WriteQueueCap:   64,
		DrainHi:         40,
		DrainLo:         20,
		Scheme:          s,
		Workload:        w,
		Seed:            1,
	}
}

// Result reports one simulation's outcome.
type Result struct {
	Workload string
	Scheme   string

	Cycles       int64
	Instructions int64

	Reads, Writes   int64
	CompanionReads  int64
	CompanionWrites int64
	SumReadLatency  int64

	// Activates counts row activations across the fleet; BusCycles the
	// data-bus cycles consumed (all channels).
	Activates int64
	BusCycles int64

	Power PowerBreakdown
}

// AvgReadLatency is the mean demand-read latency in bus cycles.
func (r *Result) AvgReadLatency() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.SumReadLatency) / float64(r.Reads)
}

// Simulator is the per-run state machine.
type Simulator struct {
	cfg      Config
	channels []*channelState
	cores    []*core
	now      int64
	rng      *simrand.Source

	// readRing holds the demand reads in flight by completion cycle: slot
	// c&(len-1) lists those whose data reaches the ROB at cycle c. Its
	// length exceeds the longest CAS-to-decode delay a read can see.
	readRing [][]completion
	// free recycles requests once their column command has issued.
	free []*request

	// busDur is the data-bus cycles one access occupies on each ganged
	// channel; decode the controller's correction latency in bus cycles.
	busDur, decode int64

	res Result

	// Pre-resolved obs handles; nil (no-op) without Config.Metrics.
	mReads, mWrites, mBankConflicts *obs.Counter
	mReadLatency                    *obs.Histogram
}

// New builds a simulator. It panics on nonsensical configuration, which
// only arises from programmer error.
func New(cfg Config) *Simulator {
	if cfg.Channels%cfg.Scheme.ChannelsPerAccess != 0 {
		panic(fmt.Sprintf("memsim: %d channels not divisible by gang %d", cfg.Channels, cfg.Scheme.ChannelsPerAccess))
	}
	if cfg.RanksPerChannel%cfg.Scheme.RanksPerAccess != 0 {
		panic(fmt.Sprintf("memsim: %d ranks not divisible by gang %d", cfg.RanksPerChannel, cfg.Scheme.RanksPerAccess))
	}
	t, sc := &cfg.Timing, &cfg.Scheme
	s := &Simulator{
		cfg: cfg,
		rng: simrand.New(cfg.Seed ^ 0xfeed),
		// Ganged ranks transfer back to back on the shared bus; the
		// decode converts 3.2GHz core cycles to 800MHz bus cycles (ceil).
		busDur: int64(sc.BurstCyclesPerRank*sc.RanksPerAccess + t.TRTRS*(sc.RanksPerAccess-1)),
		decode: int64((sc.CorrectionCycles + 3) / 4),
	}
	// A read's CAS waits at most tCCD past its issue (the column slack)
	// and its data at most for the bus backlog the column phase admits
	// plus a rank switch; the transfer and the decode follow.
	span := int64(t.TCCD+t.CL+4*t.TBurst+t.TRTRS) + s.busDur + s.decode
	slots := 1
	for int64(slots) <= span {
		slots <<= 1
	}
	// Each base channel completes at most one read per cycle, because its
	// transfers end strictly one after another.
	perSlot := cfg.Channels / sc.ChannelsPerAccess
	backing := make([]completion, slots*perSlot)
	s.readRing = make([][]completion, slots)
	for i := range s.readRing {
		s.readRing[i] = backing[i*perSlot : i*perSlot : (i+1)*perSlot]
	}
	for c := 0; c < cfg.Channels; c++ {
		ch := newChannel(cfg.RanksPerChannel, cfg.BanksPerRank)
		ch.nextRefresh = int64(cfg.Timing.TREFI / cfg.RanksPerChannel)
		s.channels = append(s.channels, ch)
	}
	geom := systemGeom{
		channels: cfg.Channels / cfg.Scheme.ChannelsPerAccess,
		ranks:    cfg.RanksPerChannel / cfg.Scheme.RanksPerAccess,
		banks:    cfg.BanksPerRank,
		rows:     cfg.RowsPerBank,
		cols:     cfg.ColsPerRow,
	}
	for i := 0; i < cfg.Cores; i++ {
		mlp := cfg.Workload.MLP
		if mlp <= 0 {
			mlp = 8
		}
		s.cores = append(s.cores, &core{
			mlp:    mlp,
			trace:  newTraceGen(cfg.Workload, geom, cfg.Seed*1000003+uint64(i)),
			target: cfg.InstrPerCore,
		})
	}
	s.res.Workload = cfg.Workload.Name
	s.res.Scheme = cfg.Scheme.Name
	s.mReads = cfg.Metrics.Counter("memsim.reads")
	s.mWrites = cfg.Metrics.Counter("memsim.writes")
	s.mBankConflicts = cfg.Metrics.Counter("memsim.bank_conflicts")
	s.mReadLatency = cfg.Metrics.Histogram("memsim.read_latency_cycles",
		[]float64{20, 40, 60, 80, 120, 160, 240, 320, 640})
	return s
}

// gangBase maps a trace's effective channel to the first physical channel
// of its gang.
func (s *Simulator) gangBase(effChannel int) int {
	return effChannel * s.cfg.Scheme.ChannelsPerAccess
}

// gangRank maps a trace's effective rank to the first physical rank of its
// gang within a channel.
func (s *Simulator) gangRank(effRank int) int {
	return (effRank * s.cfg.Scheme.RanksPerAccess) % s.cfg.RanksPerChannel
}

// enqueueRead registers a demand read (plus any scheme companion) and is
// called from core.fetch.
func (s *Simulator) enqueueRead(entry *robEntry, op *traceOp) {
	base := s.gangBase(op.channel)
	ch := s.channels[base]
	r := s.newRequest(request{
		kind: reqRead, rank: s.gangRank(op.rank), bank: op.bank,
		row: op.row, col: op.col, robSlot: entry, arrive: s.now,
	})
	ch.readQ.push(r)
	ch.wake = s.now + 1
	s.res.Reads++
	s.mReads.Inc()
	if n := s.cfg.Scheme.SerialModeEvery; n > 0 && s.res.Reads%int64(n) == 0 {
		// Serial-mode episode: quiesce, MRS-toggle, re-read, verify —
		// two additional row-hit transfers on the same line.
		for k := 0; k < 2; k++ {
			comp := *r
			comp.robSlot = nil
			ch.readQ.push(s.newRequest(comp))
			s.res.CompanionReads++
		}
	}
	if s.cfg.Scheme.ExtraReadPerRead {
		comp := *r
		comp.robSlot = nil
		comp.col = (op.col + 1) % s.cfg.ColsPerRow // ECC fetched from the same row
		ch.readQ.push(s.newRequest(comp))
		s.res.CompanionReads++
	}
}

// enqueueWrite buffers a write; false means the queue is full and fetch
// must stall (back-pressure, as in USIMM).
func (s *Simulator) enqueueWrite(op *traceOp) bool {
	base := s.gangBase(op.channel)
	ch := s.channels[base]
	if ch.writeQ.len() >= s.cfg.WriteQueueCap {
		return false
	}
	w := s.newRequest(request{
		kind: reqWrite, rank: s.gangRank(op.rank), bank: op.bank,
		row: op.row, col: op.col, arrive: s.now,
	})
	ch.writeQ.push(w)
	ch.wake = s.now + 1
	s.res.Writes++
	s.mWrites.Inc()
	if s.cfg.Scheme.ExtraReadPerWrite {
		// Read-modify-write: fetch the checksum line before updating.
		rd := *w
		rd.kind = reqRead
		rd.col = (op.col + 11) % s.cfg.ColsPerRow
		ch.readQ.push(s.newRequest(rd))
		s.res.CompanionReads++
	}
	if p := s.cfg.Scheme.ExtraWritePerWrite; p > 0 && s.rng.Bernoulli(p) {
		comp := *w
		// LOT-ECC's tier-1 ECC shares the data row, so the coalesced
		// update is a row hit at a different column: pure extra write
		// bandwidth, which is what its §XII-A slowdown consists of.
		comp.col = (op.col + 7) % s.cfg.ColsPerRow
		ch.writeQ.push(s.newRequest(comp))
		s.res.CompanionWrites++
	}
	return true
}

// errWatchdog is the panic value of a run still unfinished after
// 400×InstrPerCore cycles.
const errWatchdog = "memsim: watchdog expired; scheduler livelock?"

// Run executes the simulation to completion and returns the result.
func (s *Simulator) Run() Result {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: every few thousand
// cycles it polls ctx and, when cancelled, returns the partial Result as
// of the current cycle (Cycles and the power/traffic counters cover the
// simulated prefix).
//
// Each cycle takes the three steps of the every-cycle model, but skips
// the calls that would change nothing: a channel gang's scheduler runs
// only from its wake cycle on (see maybeIssue), and a core whose retire
// and fetch moved nothing sleeps until one of its reads completes or a
// write leaves a write queue.
func (s *Simulator) RunContext(ctx context.Context) Result {
	maxCycles := s.cfg.InstrPerCore * 400 // generous watchdog
	gang := s.cfg.Scheme.ChannelsPerAccess
	for {
		s.now++
		if s.now > maxCycles {
			panic(errWatchdog)
		}
		if s.now&(1<<12-1) == 0 && ctx.Err() != nil {
			break
		}
		// 1. Data arrivals unblock ROB entries.
		s.deliver()
		// 2. Controller work per channel gang; followers are driven by
		// the base.
		for ci := 0; ci < len(s.channels); ci += gang {
			if ch := s.channels[ci]; s.now >= ch.wake {
				s.maybeRefresh(ci)
				s.maybeIssue(ci, ch)
			}
		}
		// 3. Cores retire then fetch.
		allDone := true
		for _, c := range s.cores {
			if c.done {
				continue
			}
			if !c.asleep {
				retired, instr := c.retired, c.robInstr
				c.retire()
				if c.done {
					continue
				}
				c.fetch(s)
				c.asleep = c.retired == retired && c.robInstr == instr
			}
			allDone = false
		}
		if allDone {
			break
		}
	}
	return s.finish()
}

// deliver completes the demand reads whose data arrives this cycle: their
// ROB entries turn ready and their cores wake.
func (s *Simulator) deliver() {
	slot := &s.readRing[s.now&int64(len(s.readRing)-1)]
	for _, c := range *slot {
		c.entry.ready = true
		c.entry.owner.outstanding--
		c.entry.owner.asleep = false
		s.res.SumReadLatency += s.now - c.arrive
		s.mReadLatency.Observe(float64(s.now - c.arrive))
	}
	*slot = (*slot)[:0]
}

// finish closes the run at the current cycle: totals, per-rank activity
// and power.
func (s *Simulator) finish() Result {
	s.res.Cycles = s.now
	s.res.Instructions = s.cfg.InstrPerCore * int64(s.cfg.Cores)
	for _, ch := range s.channels {
		for r := range ch.ranks {
			s.res.Activates += ch.ranks[r].activates
			s.res.BusCycles += ch.ranks[r].readCycles + ch.ranks[r].writeCycles
		}
	}
	s.res.Power = s.computePower()
	return s.res
}

// maybeRefresh launches the staggered per-rank auto-refresh.
func (s *Simulator) maybeRefresh(base int) {
	ch := s.channels[base]
	if s.now < ch.nextRefresh {
		return
	}
	t := &s.cfg.Timing
	for g := 0; g < s.cfg.Scheme.ChannelsPerAccess; g++ {
		phys := s.channels[base+g]
		rank := &phys.ranks[ch.refreshRank]
		until := s.now + int64(t.TRFC)
		rank.refreshUntil = until
		rank.refreshes++
		for b := range rank.banks {
			bank := &rank.banks[b]
			bank.openRow = -1
			bank.reserved = false
			bank.nextAct = max64(bank.nextAct, until)
		}
	}
	ch.refreshRank = (ch.refreshRank + 1) % s.cfg.RanksPerChannel
	ch.nextRefresh += int64(t.TREFI / s.cfg.RanksPerChannel)
}

// maybeIssue runs the two-phase FR-FCFS scheduler for one channel gang: a
// column command (CAS + data transfer) for the oldest request whose row is
// open and ready, and independently one row command (PRE+ACT) preparing
// the oldest row-conflict request. Decoupling the phases keeps the data
// bus from being reserved for far-future conflicts — the head-of-line
// blocking a single-pointer model would suffer.
//
// On the way it sets ch.wake, the first cycle at which the scheduler could
// act again: the earliest cycle any scanned request could pass the column
// slack or the row feasibility test, with the gang's state as it now is.
// Only an enqueue, an issue, a refresh or a watermark flip changes that
// state, so each of them pulls the wake in to the next scheduler call.
func (s *Simulator) maybeIssue(base int, ch *channelState) {
	// Write-drain watermark policy.
	if s.drainFlips(ch) {
		ch.draining = !ch.draining
	}
	q, other := &ch.readQ, &ch.writeQ
	if ch.draining {
		q, other = &ch.writeQ, &ch.readQ
	}
	ch.wake = math.MaxInt64
	issued := false

	// Column phase: oldest request that could move data soon, bus
	// backlog permitting. The non-selected queue gets a chance when the
	// selected one has nothing ready — also the guarantee that a
	// prepared request always drains its bank reservation eventually.
	// A fixed backlog horizon (independent of the scheme's burst shape,
	// so schemes differ only through real resource usage).
	if backlog := ch.busFreeAt - 4*int64(s.cfg.Timing.TBurst); s.now >= backlog {
		issued = s.tryColumn(base, q) || s.tryColumn(base, other)
	} else {
		ch.wake = backlog
	}

	// Row phase: prepare the oldest request whose row is closed or
	// conflicting, unless its bank is reserved for an earlier victim.
	for i := 0; i < q.len(); i++ {
		r := q.at(i)
		at := s.prepareAt(base, r)
		if at <= s.now {
			s.prepare(base, r)
			issued = true
			break
		}
		ch.wake = min(ch.wake, at)
	}

	if issued || s.drainFlips(ch) {
		ch.wake = s.now + 1
	}
	ch.wake = min(ch.wake, ch.nextRefresh)
}

// drainFlips reports whether the write-drain watermark flips when next
// evaluated with the queues as they stand: draining stops at DrainLo
// writes, and starts at DrainHi or when only writes wait. A read queue
// that is empty while DrainLo or fewer writes wait flips it on every call.
func (s *Simulator) drainFlips(ch *channelState) bool {
	if ch.draining {
		return ch.writeQ.len() <= s.cfg.DrainLo
	}
	return ch.writeQ.len() >= s.cfg.DrainHi || (ch.readQ.len() == 0 && ch.writeQ.len() > 0)
}

// tryColumn issues a CAS for the oldest data-ready request in q, and
// lowers the channel's wake to the cycle each open request not yet ready
// comes within the slack.
func (s *Simulator) tryColumn(base int, q *queue) bool {
	ch := s.channels[base]
	tCCD := int64(s.cfg.Timing.TCCD)
	for i := 0; i < q.len(); i++ {
		r := q.at(i)
		ready, open := s.casReadyFor(base, r)
		if !open {
			continue
		}
		if ready > s.now+tCCD {
			ch.wake = min(ch.wake, ready-tCCD)
			continue
		}
		q.removeAt(i)
		if r.kind == reqWrite {
			// A freed write-queue slot may unblock a core's fetch.
			for _, c := range s.cores {
				c.asleep = false
			}
		}
		s.issueColumn(base, r, ready)
		s.free = append(s.free, r)
		return true
	}
	return false
}

// casReadyFor reports whether r's row is open across its whole gang and,
// if so, the earliest CAS cycle the gang's timing horizons allow. No state
// is mutated.
func (s *Simulator) casReadyFor(base int, r *request) (ready int64, open bool) {
	t := &s.cfg.Timing
	sc := &s.cfg.Scheme
	isWrite := r.kind == reqWrite
	ready = s.now
	for g := 0; g < sc.ChannelsPerAccess; g++ {
		phys := s.channels[base+g]
		for k := 0; k < sc.RanksPerAccess; k++ {
			rank := &phys.ranks[r.rank+k]
			bank := &rank.banks[r.bank]
			if bank.openRow != r.row {
				return 0, false
			}
			v := max64(bank.nextCAS, rank.refreshUntil)
			if !isWrite {
				v = max64(v, rank.lastWriteEnd+int64(t.TWTR))
			}
			ready = max64(ready, v)
		}
	}
	return ready, true
}

// issueColumn schedules the CAS and data transfer for a request whose row
// is open, and registers the read completion.
func (s *Simulator) issueColumn(base int, r *request, casReady int64) {
	t := &s.cfg.Timing
	sc := &s.cfg.Scheme
	isWrite := r.kind == reqWrite

	burst := int64(sc.BurstCyclesPerRank)
	lat := int64(t.CL)
	if isWrite {
		lat = int64(t.CWL)
	}
	var dataEndMax int64
	for g := 0; g < sc.ChannelsPerAccess; g++ {
		phys := s.channels[base+g]
		busAt := phys.busFreeAt
		if phys.lastBusWrite != isWrite || phys.lastBusRank != r.rank {
			busAt += int64(t.TRTRS)
		}
		dataStart := max64(casReady+lat, busAt)
		dataEnd := dataStart + s.busDur
		phys.busFreeAt = dataEnd
		phys.lastBusWrite = isWrite
		phys.lastBusRank = r.rank
		if dataEnd > dataEndMax {
			dataEndMax = dataEnd
		}
		casT := dataStart - lat
		for k := 0; k < sc.RanksPerAccess; k++ {
			rank := &phys.ranks[r.rank+k]
			bank := &rank.banks[r.bank]
			bank.nextCAS = casT + int64(t.TCCD)
			bank.reserved = false // the opened row has served its CAS
			if isWrite {
				bank.nextPre = max64(bank.nextPre, dataEnd+int64(t.TWR))
				rank.lastWriteEnd = dataEnd
				rank.writeCycles += burst
			} else {
				bank.nextPre = max64(bank.nextPre, casT+int64(t.TRTP))
				rank.readCycles += burst
			}
		}
	}

	if !isWrite && r.robSlot != nil {
		done := dataEndMax + s.decode
		if done-s.now >= int64(len(s.readRing)) {
			panic(fmt.Sprintf("memsim: read completes %d cycles after its CAS issue, beyond the %d-slot ring", done-s.now, len(s.readRing)))
		}
		slot := &s.readRing[done&int64(len(s.readRing)-1)]
		*slot = append(*slot, completion{entry: r.robSlot, arrive: r.arrive})
	}
}

// prepareAt returns the earliest cycle at which r's row could be opened
// across its gang (PRE if needed, then ACT) with the gang's state as it
// is, or math.MaxInt64 while a bank involved is already open on the
// right row (the column phase will serve it) or still reserved for an
// earlier conflict victim. No state is mutated.
func (s *Simulator) prepareAt(base int, r *request) int64 {
	t := &s.cfg.Timing
	sc := &s.cfg.Scheme
	at := s.now
	for g := 0; g < sc.ChannelsPerAccess; g++ {
		phys := s.channels[base+g]
		for k := 0; k < sc.RanksPerAccess; k++ {
			rank := &phys.ranks[r.rank+k]
			bank := &rank.banks[r.bank]
			if bank.openRow == r.row || bank.reserved {
				return math.MaxInt64
			}
			actFloor := max64(bank.nextAct,
				max64(rank.fawReady(t.TFAW), rank.lastAct+int64(t.TRRD)))
			if bank.openRow != -1 {
				actFloor = max64(actFloor, bank.nextPre+int64(t.TRP))
			}
			// The bank is busy (try a younger request) while its ACT
			// would wait more than tRP+tRRD, and the rank while it
			// refreshes.
			at = max64(at, max64(rank.refreshUntil, actFloor-int64(t.TRP)-int64(t.TRRD)))
		}
	}
	return at
}

// prepare opens r's row across its gang: PRE where another row is open,
// then ACT. prepareAt has found it feasible now.
func (s *Simulator) prepare(base int, r *request) {
	t := &s.cfg.Timing
	sc := &s.cfg.Scheme
	// A conflict (not a cold miss): the request's bank holds a different
	// open row that must be precharged first. One count per request, read
	// off the gang's base bank before the commit pass mutates it.
	if s.channels[base].ranks[r.rank].banks[r.bank].openRow != -1 {
		s.mBankConflicts.Inc()
	}
	for g := 0; g < sc.ChannelsPerAccess; g++ {
		phys := s.channels[base+g]
		for k := 0; k < sc.RanksPerAccess; k++ {
			rank := &phys.ranks[r.rank+k]
			bank := &rank.banks[r.bank]
			actAt := max64(s.now, bank.nextAct)
			if bank.openRow != -1 {
				actAt = max64(actAt, max64(bank.nextPre, s.now)+int64(t.TRP))
			}
			actAt = max64(actAt, rank.fawReady(t.TFAW))
			actAt = max64(actAt, rank.lastAct+int64(t.TRRD))
			rank.recordAct(actAt, t.TRAS)
			bank.openRow = r.row
			bank.reserved = true
			bank.nextAct = actAt + int64(t.TRC)
			bank.nextPre = actAt + int64(t.TRAS)
			bank.nextCAS = actAt + int64(t.TRCD)
		}
	}
}

// newRequest returns a queueable copy of r, in a request taken from the
// free list when one is there.
func (s *Simulator) newRequest(r request) *request {
	var p *request
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		p = new(request)
	}
	*p = r
	return p
}
