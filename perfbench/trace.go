package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer by
// the benchmark. Spans of one transaction or one experiment job share a
// Group; Parent is the ID of the enclosing span (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Begin returns 0 and End does nothing, so call sites need
// no branches.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int, group int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// EndAs closes the span and renames it, for calls whose kind is known
// only once they return.
func (t *Tracer) EndAs(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent calls under one parent); the covered part is the length of
// the union of their intervals, clipped to the parent. Unclosed spans are
// ignored.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
