// Package memsim is a cycle-level main-memory system simulator in the
// mould of USIMM (Chatterjee et al., UUCS-12-002), the tool the XED paper
// uses for its performance and power evaluation (§X). It models DDR3
// channels, ranks and banks with JEDEC timing constraints, an FR-FCFS
// memory controller with write-drain watermarks, a ROB-limited multicore
// front end, and a Micron TN-41-01-style DRAM power model.
//
// Protection schemes change *how many resources one access occupies*: XED
// and SECDED activate one rank; x8 Chipkill and XED-on-Chipkill gang both
// ranks of the channel (100% overfetch); Double-Chipkill gangs two
// channels as well. The alternatives of §XI-C (extra burst, extra
// transaction) and LOT-ECC's extra writes are modelled the same way. These
// occupancy differences — not absolute latencies — produce the paper's
// Figure 11-14 results, so the relative orderings are robust to the
// synthetic workloads standing in for the authors' SPEC/PARSEC traces.
package memsim

// Timing holds DDR3 timing constraints in memory-bus cycles. Defaults are
// DDR3-1600 (800 MHz bus, Table V) with 2Gb-part latencies.
type Timing struct {
	TCK float64 // cycle time in ns

	CL    int // CAS latency (read command to first data)
	CWL   int // CAS write latency
	TRCD  int // activate to read/write
	TRP   int // precharge to activate
	TRAS  int // activate to precharge
	TRC   int // activate to activate, same bank
	TRRD  int // activate to activate, different banks of a rank
	TFAW  int // four-activate window per rank
	TCCD  int // CAS to CAS
	TWTR  int // write data end to read command, same rank
	TWR   int // write recovery (data end to precharge)
	TRTP  int // read to precharge
	TRTRS int // rank-to-rank data-bus switch penalty
	TRFC  int // refresh cycle time
	TREFI int // refresh interval

	TBurst int // data-bus cycles per 64B cache-line transfer (BL8 = 4)
}

// DDR31600 returns the DDR3-1600K timing set used by the paper's Table V
// system (800 MHz bus; 2Gb x8 devices).
func DDR31600() Timing {
	return Timing{
		TCK:    1.25,
		CL:     11,
		CWL:    8,
		TRCD:   11,
		TRP:    11,
		TRAS:   28,
		TRC:    39,
		TRRD:   5,
		TFAW:   24,
		TCCD:   4,
		TWTR:   6,
		TWR:    12,
		TRTP:   6,
		TRTRS:  2,
		TRFC:   128,  // 160ns for a 2Gb part
		TREFI:  6240, // 7.8us
		TBurst: 4,    // 8 beats, double data rate
	}
}
