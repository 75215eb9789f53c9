package memsim

import "xedsim/internal/simrand"

// The processor front end follows USIMM's model (§X, Table V): each core
// has a 160-entry ROB, fetches and retires 4 instructions per core cycle,
// and runs at 4x the memory bus clock — so up to 16 instructions enter and
// leave the window per memory cycle. Non-memory instructions complete
// instantly; a read occupies its ROB slot until data returns, stalling
// retirement when it reaches the head; writes retire into the controller's
// write queue.

// robEntry is one window entry; non-memory instructions are batched.
type robEntry struct {
	count int  // instructions represented
	ready bool // reads flip this on data return
	owner *core
}

// core is one trace-driven processor.
type core struct {
	mlp   int
	trace *traceGen

	// rob rings the window's entries from robHead; an entry keeps its
	// address while a read is in flight to it. Every entry holds at least
	// one instruction, so robSize slots suffice.
	rob      [robSize]robEntry
	robHead  int
	robLen   int
	robInstr int // instructions currently in the window

	retired int64
	target  int64
	done    bool

	// outstanding counts in-flight demand reads, capped at the
	// workload's MLP.
	outstanding int

	// pendingGap holds non-memory instructions still to fetch before
	// the next memory operation.
	pendingGap int
	// pendingOp is the memory op waiting to enter the window, if hasOp.
	pendingOp traceOp
	hasOp     bool

	// asleep marks a core whose last retire and fetch moved nothing; the
	// simulator skips it until a read of its completes or a write leaves
	// a write queue.
	asleep bool
}

const (
	robSize          = 160
	instrPerMemCycle = 8 // sustainable half of the 4-wide x 4-cycle peak
)

// traceOp is the next memory operation of a trace.
type traceOp struct {
	isWrite                       bool
	channel, rank, bank, row, col int
}

// fetch moves up to instrPerMemCycle instructions into the window,
// emitting memory requests via the simulator. It stops when the window or
// the write queue is full.
func (c *core) fetch(sim *Simulator) {
	budget := instrPerMemCycle
	for budget > 0 && !c.done {
		if c.pendingGap == 0 && !c.hasOp {
			c.pendingGap, c.pendingOp = c.trace.next()
			c.hasOp = true
		}
		if c.pendingGap > 0 {
			n := c.pendingGap
			if n > budget {
				n = budget
			}
			if c.robInstr+n > robSize {
				n = robSize - c.robInstr
			}
			if n == 0 {
				return
			}
			c.appendBatch(n)
			c.pendingGap -= n
			budget -= n
			continue
		}
		// A memory operation needs one window slot.
		if c.robInstr+1 > robSize {
			return
		}
		op := &c.pendingOp
		if op.isWrite {
			if !sim.enqueueWrite(op) {
				return // write queue full: stall fetch
			}
			c.appendReady()
		} else {
			if c.outstanding >= c.mlp {
				return // MLP limit: dependent miss cannot issue yet
			}
			entry := c.push(robEntry{count: 1, owner: c})
			c.robInstr++
			c.outstanding++
			sim.enqueueRead(entry, op)
		}
		c.hasOp = false
		budget--
	}
}

// appendBatch adds n immediately-ready instructions, merging with the
// window tail when possible.
func (c *core) appendBatch(n int) {
	if c.robLen > 0 {
		last := c.entry(c.robLen - 1)
		if last.ready {
			last.count += n
			c.robInstr += n
			return
		}
	}
	c.push(robEntry{count: n, ready: true})
	c.robInstr += n
}

// push appends e at the window's tail and returns its slot.
func (c *core) push(e robEntry) *robEntry {
	slot := c.entry(c.robLen)
	*slot = e
	c.robLen++
	return slot
}

// entry returns the window's i-th oldest slot.
func (c *core) entry(i int) *robEntry {
	if i += c.robHead; i >= robSize {
		i -= robSize
	}
	return &c.rob[i]
}

func (c *core) appendReady() { c.appendBatch(1) }

// retire drains up to instrPerMemCycle completed instructions in order.
func (c *core) retire() {
	budget := instrPerMemCycle
	for budget > 0 && c.robLen > 0 {
		head := &c.rob[c.robHead]
		if !head.ready {
			return
		}
		n := head.count
		if n > budget {
			head.count -= budget
			c.robInstr -= budget
			c.retired += int64(budget)
			budget = 0
			break
		}
		if c.robHead++; c.robHead == robSize {
			c.robHead = 0
		}
		c.robLen--
		c.robInstr -= n
		c.retired += int64(n)
		budget -= n
	}
	if c.retired >= c.target {
		c.done = true
	}
}

// traceGen synthesises a memory-access trace with a target read MPKI,
// write PKI and row-buffer locality — the three knobs that determine how
// a workload responds to losing rank parallelism and bus bandwidth.
type traceGen struct {
	rng  *simrand.Source
	w    Workload
	geom systemGeom

	// current open-page stream.
	channel, rank, bank, row, col int

	avgGap    float64 // non-memory instructions per memory op
	writeFrac float64
}

// systemGeom is the address-space shape visible to traces.
type systemGeom struct {
	channels, ranks, banks, rows, cols int
}

func newTraceGen(w Workload, geom systemGeom, seed uint64) *traceGen {
	memPKI := w.ReadMPKI + w.WritePKI
	t := &traceGen{
		rng:       simrand.New(seed),
		w:         w,
		geom:      geom,
		avgGap:    1000 / memPKI,
		writeFrac: w.WritePKI / memPKI,
	}
	t.jump()
	return t
}

// jump opens a fresh random page.
func (t *traceGen) jump() {
	t.channel = t.rng.Intn(t.geom.channels)
	t.rank = t.rng.Intn(t.geom.ranks)
	t.bank = t.rng.Intn(t.geom.banks)
	t.row = t.rng.Intn(t.geom.rows)
	t.col = t.rng.Intn(t.geom.cols)
}

// next yields the instruction gap before the next memory op and the op.
func (t *traceGen) next() (int, traceOp) {
	// Geometric gap around the mean keeps bursts realistic.
	gap := int(t.rng.ExpFloat64() * t.avgGap)
	if !t.rng.Bernoulli(t.w.RowBufferLocality) {
		t.jump()
	} else {
		t.col = (t.col + 1) % t.geom.cols
	}
	return gap, traceOp{
		isWrite: t.rng.Bernoulli(t.writeFrac),
		channel: t.channel, rank: t.rank, bank: t.bank, row: t.row, col: t.col,
	}
}
