package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder was created; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps a traced run's spans in memory. A nil recorder records
// nothing, so untraced calls share the traced code path at no cost.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // spans[i].ID == i+1
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a span starting now and returns its ID (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span opened by begin.
func (r *spanRecorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished span.
func (r *spanRecorder) add(name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Name: name, Start: r.ns(start), End: r.ns(end)})
}

// snapshot returns a copy of every span recorded so far.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (concurrent calls) and
// may stick out of the parent; only their union inside the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// spanKey carries the enclosing span ID through a context, so calls made
// under it (HTTP requests of a job) can name their parent.
type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}
