package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 35, End: 45}}, 50},
		{"nested in another child", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"sticking out of the parent", []span{{Start: -50, End: 10}, {Start: 95, End: 200}}, 85},
		{"outside the parent", []span{{Start: 100, End: 120}, {Start: -20, End: 0}}, 100},
		{"covering everything", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	var nilRec *spanRecorder
	if id := nilRec.begin("x", 0); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	nilRec.end(0)
	nilRec.add("x", 0, time.Now(), time.Now())

	r := newSpanRecorder()
	root := r.begin("dist.job", 0)
	start := time.Now()
	r.add("http.status", root, start, start.Add(time.Millisecond))
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[0].ID != root || spans[1].Parent != root {
		t.Fatalf("spans %+v", spans)
	}
	if kids := childrenOf(spans)[root]; len(kids) != 1 || kids[0].Name != "http.status" {
		t.Errorf("children of the job: %+v", kids)
	}
	if spans[0].End < spans[0].Start {
		t.Errorf("span ends before it starts: %+v", spans[0])
	}
}
