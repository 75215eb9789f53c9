package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// This file renders the fleet's per-MC counters in the Linux EDAC sysfs
// shape — the exact attribute files a baremetal memory-error monitor
// scrapes from /sys/devices/system/edac/mc/mc<N>/ — and parses the dump
// back. The round trip is exact (FuzzEDACDumpRoundTrip holds it to that),
// so external EDAC consumers can point at the /edac view or a dump file
// and parse it with the code they already run against real hosts.

// edacPrefix roots every attribute path in a dump.
const edacPrefix = "/sys/devices/system/edac/mc/mc"

// edacAttrs is the fixed attribute order of one MC's dump block.
var edacAttrs = [...]string{
	"mc_name",
	"size_mb",
	"seconds_since_reset",
	"ce_count",
	"ce_noinfo_count",
	"ue_count",
	"ue_noinfo_count",
}

// MCRecord is one memory controller's EDAC attribute block.
type MCRecord struct {
	// Name is the mc_name attribute (the controller model string).
	Name string `json:"mc_name"`
	// SizeMB is the memory the controller hosts.
	SizeMB uint64 `json:"size_mb"`
	// SecondsSinceReset is the counter accumulation window.
	SecondsSinceReset uint64 `json:"seconds_since_reset"`
	// Counters carries ce_count / ce_noinfo_count / ue_count /
	// ue_noinfo_count.
	Counters MCCounters `json:"counters"`
}

// EDACSnapshot is a whole host's (or simulated fleet's) EDAC state: one
// record per memory controller, mc0 first.
type EDACSnapshot struct {
	MCs []MCRecord `json:"mcs"`
}

// NewEDACSnapshot shapes the fleet's per-MC counters as EDAC records: the
// controller name carries the simulated scheme, size_mb the DIMMs the
// controller hosts, and seconds_since_reset the simulated horizon.
func NewEDACSnapshot(cfg *Config, mcs []MCCounters) *EDACSnapshot {
	scheme := cfg.Scheme
	if scheme == "" {
		scheme = "XED"
	}
	name := "xedsim " + scheme
	seconds := uint64(cfg.HorizonHours * 3600)
	snap := &EDACSnapshot{MCs: make([]MCRecord, len(mcs))}
	for i := range mcs {
		dimms := cfg.DIMMsPerMC
		if rest := cfg.DIMMs - i*cfg.DIMMsPerMC; rest < dimms {
			dimms = rest
		}
		if dimms < 0 {
			dimms = 0
		}
		snap.MCs[i] = MCRecord{
			Name:              name,
			SizeMB:            uint64(dimms) * uint64(cfg.DIMMSizeMB),
			SecondsSinceReset: seconds,
			Counters:          mcs[i],
		}
	}
	return snap
}

// Dump renders the snapshot as "<sysfs-path> <value>" lines, mc0 first,
// attributes in edacAttrs order. ParseEDACDump inverts it exactly.
func (s *EDACSnapshot) Dump() []byte {
	size := 0
	for i := range s.MCs {
		mc := &s.MCs[i]
		size += len(edacAttrs)*(len(edacPrefix)+decLen(uint64(i))+3) + len(mc.Name)
		for _, v := range mc.values() {
			size += decLen(*v)
		}
	}
	for _, attr := range edacAttrs {
		size += len(s.MCs) * len(attr)
	}
	b := make([]byte, 0, size)
	for i := range s.MCs {
		mc := &s.MCs[i]
		vals := mc.values()
		for a, attr := range edacAttrs {
			b = append(b, edacPrefix...)
			b = strconv.AppendUint(b, uint64(i), 10)
			b = append(b, '/')
			b = append(b, attr...)
			b = append(b, ' ')
			if a == 0 {
				b = append(b, mc.Name...)
			} else {
				b = strconv.AppendUint(b, *vals[a-1], 10)
			}
			b = append(b, '\n')
		}
	}
	return b
}

// values points at the record's numeric attributes in edacAttrs order
// (every attribute after mc_name).
func (r *MCRecord) values() [len(edacAttrs) - 1]*uint64 {
	return [...]*uint64{&r.SizeMB, &r.SecondsSinceReset, &r.Counters.CE, &r.Counters.CENoInfo, &r.Counters.UE, &r.Counters.UENoInfo}
}

// decLen is the number of decimal digits in v.
func decLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// ParseEDACDump inverts Dump: it accepts any ordering of complete MC
// attribute blocks and rejects dumps with unknown attributes, duplicate or
// missing attributes, non-dense controller indices, or malformed counter
// values. For every snapshot s, ParseEDACDump(s.Dump()) reproduces s
// exactly (names may contain spaces; values run to end of line).
func ParseEDACDump(data []byte) (*EDACSnapshot, error) {
	// A dense dump's controllers cannot outnumber its lines, so no valid
	// index reaches the line count.
	lines := bytes.Count(data, []byte{'\n'}) + 1
	mcCap := (lines + len(edacAttrs) - 1) / len(edacAttrs)
	recs := make([]MCRecord, 0, mcCap)
	seen := make([]uint8, 0, mcCap) // per controller: bit a set once edacAttrs[a] was read
	name := ""                      // the last mc_name read, shared by controllers repeating it
	for ln := 1; len(data) > 0; ln++ {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		if len(line) < len(edacPrefix) || string(line[:len(edacPrefix)]) != edacPrefix {
			return nil, fmt.Errorf("fleet: edac dump line %d: path does not start with %s", ln, edacPrefix)
		}
		rest := line[len(edacPrefix):]
		slash := bytes.IndexByte(rest, '/')
		if slash < 0 {
			return nil, fmt.Errorf("fleet: edac dump line %d: missing attribute path", ln)
		}
		idx, err := strconv.Atoi(string(rest[:slash]))
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("fleet: edac dump line %d: bad controller index %q", ln, rest[:slash])
		}
		if idx >= lines {
			return nil, fmt.Errorf("fleet: edac dump line %d: controller index mc%d cannot be dense in %d lines", ln, idx, lines)
		}
		attrVal := rest[slash+1:]
		space := bytes.IndexByte(attrVal, ' ')
		if space < 0 {
			return nil, fmt.Errorf("fleet: edac dump line %d: missing value", ln)
		}
		attr, val := attrVal[:space], attrVal[space+1:]
		a := 0
		for a < len(edacAttrs) && string(attr) != edacAttrs[a] {
			a++
		}
		if a == len(edacAttrs) {
			return nil, fmt.Errorf("fleet: edac dump line %d: unknown attribute %q", ln, attr)
		}
		for idx >= len(recs) {
			recs = append(recs, MCRecord{})
			seen = append(seen, 0)
		}
		if seen[idx]&(1<<a) != 0 {
			return nil, fmt.Errorf("fleet: edac dump line %d: duplicate attribute mc%d/%s", ln, idx, attr)
		}
		seen[idx] |= 1 << a
		if a == 0 {
			if string(val) != name {
				name = string(val)
			}
			recs[idx].Name = name
			continue
		}
		n, err := strconv.ParseUint(string(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: edac dump line %d: mc%d/%s value %q is not a uint64", ln, idx, attr, val)
		}
		*recs[idx].values()[a-1] = n
	}
	mcs := 0
	for _, m := range seen {
		if m != 0 {
			mcs++
		}
	}
	for i := 0; i < mcs; i++ {
		if seen[i] == 0 {
			return nil, fmt.Errorf("fleet: edac dump: controller indices not dense (missing mc%d of %d)", i, mcs)
		}
		for a, attr := range edacAttrs {
			if seen[i]&(1<<a) == 0 {
				return nil, fmt.Errorf("fleet: edac dump: mc%d missing attribute %s", i, attr)
			}
		}
	}
	return &EDACSnapshot{MCs: recs}, nil
}

// View is the live EDAC data source the /edac HTTP view serves. A running
// engine binds itself to the Options.View it was given; the handler then
// renders a fresh counter snapshot per request — mid-run numbers during a
// simulation, final numbers after it.
type View struct {
	mu sync.Mutex
	fn func() *EDACSnapshot
}

// NewView returns an unbound view (its handler answers 503 until a run
// binds it).
func NewView() *View { return &View{} }

func (v *View) bind(fn func() *EDACSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.fn = fn
}

// Snapshot returns the current EDAC state, or nil when no run has bound
// the view yet.
func (v *View) Snapshot() *EDACSnapshot {
	v.mu.Lock()
	fn := v.fn
	v.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Handler serves the EDAC dump as text/plain — the payload an external
// EDAC consumer polls instead of walking a real host's sysfs.
func (v *View) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := v.Snapshot()
		if snap == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("no fleet running\n")) //nolint:errcheck // best-effort over HTTP
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(snap.Dump()) //nolint:errcheck // best-effort over HTTP
	})
}
