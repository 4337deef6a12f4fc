package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the enclosing span (0 for an op's root);
// every span of one op carries the op's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. A nil *tracer records nothing, so untraced ops call the
// same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its id (0 when t is nil).
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// finish closes the span start returned.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// startOf returns the start of span id, in nanoseconds since the epoch.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Start
}

// add records a span whose interval was measured elsewhere (the server's
// own queue and run times, reported in its response).
func (t *tracer) add(name string, parent int, op int64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums span durations and counts per span name.
type layerTotals map[string]struct{ ns, n int64 }

func (t *tracer) totals() layerTotals {
	out := layerTotals{}
	for _, s := range t.spans {
		v := out[s.Name]
		v.ns += s.dur()
		v.n++
		out[s.Name] = v
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent calls) and may stick out of the parent; only the union of
// their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := map[int][][2]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// unattributedShare is the share of the root spans' time (the ops) that no
// layer span covers.
func unattributedShare(spans []span) (float64, error) {
	self := selfTimes(spans)
	var rootNS, selfNS int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootNS += s.dur()
			selfNS += self[s.ID]
		}
	}
	if rootNS == 0 {
		return 0, fmt.Errorf("no traced ops")
	}
	return float64(selfNS) / float64(rootNS), nil
}
