package main

import (
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans stay in memory until
// the run ends; parent is the index of the enclosing span (-1 for a
// root) and req groups the spans of one request.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's origin
	parent     int
	req        int
}

// tracer records spans from the benchmark's own goroutines. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// layerStats is what the trace says about one span name.
type layerStats struct {
	count     int
	selfNanos int64
	durNanos  int64
	intervals []interval
}

func (l layerStats) selfMeanMs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.selfNanos) / float64(l.count) / 1e6
}

func (l layerStats) durMeanMs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.durNanos) / float64(l.count) / 1e6
}

// layers aggregates the recorded spans by name, with self times from
// child overlap.
func (t *tracer) layers() map[string]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := map[string]layerStats{}
	for i, s := range t.spans {
		l := out[s.name]
		l.count++
		l.selfNanos += self[i]
		l.durNanos += s.end - s.start
		l.intervals = append(l.intervals, interval{s.start, s.end})
		out[s.name] = l
	}
	return out
}
