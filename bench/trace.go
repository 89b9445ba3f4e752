package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by a traced run. Times
// are nanoseconds since the tracer started. A span with Parent 0 is a
// root. Req groups the spans of one request (-1 when the span serves no
// single request). Count is the units of work the span covers: requests,
// lanes, values or datagrams, depending on the layer.
//
// A folded span stands for many short calls summed into one interval
// that starts with its parent: the live session's Recv calls, which are
// too many to record one by one.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Folded bool   `json:"folded,omitempty"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so the untraced path calls the same methods.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []Span
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: now(), counters: make(map[string]int64)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	start := int64(now().Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	return len(t.spans)
}

// end closes span id, crediting it with count units of work.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	end := int64(now().Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	t.spans[id-1].Count = count
}

// fold records a folded child of parent: dur of summed time, starting
// where the parent starts.
func (t *tracer) fold(name string, parent int, dur time.Duration, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: p.Req, Name: name,
		Start: p.Start, End: p.Start + int64(dur), Count: count, Folded: true,
	})
}

// add bumps a named counter.
func (t *tracer) add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its children
// cover. Overlapping children are counted once.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		reach := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time and count per span name.
type layerTotals struct {
	selfNS map[string]int64
	count  map[string]int64
	spans  map[string]int64
}

func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTotals{selfNS: map[string]int64{}, count: map[string]int64{}, spans: map[string]int64{}}
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		lt.selfNS[s.Name] += self
		lt.count[s.Name] += s.Count
		lt.spans[s.Name]++
	}
	return lt
}

// write stores the spans and counters as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Spans    []Span           `json:"spans"`
		Counters map[string]int64 `json:"counters"`
	}{workload, seed, t.spans, t.counters})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
