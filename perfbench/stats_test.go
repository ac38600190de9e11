package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10000, want: 99.9, ok: true}, // exactly 10 beyond p99.9
		{n: 9999, want: 99, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 20, want: 50, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, 10)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := (timing{5, 1, math.Inf(1)}).median(); got != 5 {
		t.Errorf("median with a failed sample = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 50, parent: 0},   // overlaps a: the union counts once
		{name: "c", start: 90, end: 120, parent: 0},  // runs past its parent: only 10 counts
		{name: "a.1", start: 15, end: 25, parent: 1}, // grandchild: charged to a, not root
		{name: "other", start: 0, end: 100, parent: -1},
	}
	want := []int64{100 - 40 - 10, 30 - 10, 20, 30, 10, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestOverlapTotal(t *testing.T) {
	reads := []interval{{0, 10}, {20, 30}, {40, 50}, {55, 60}}
	writes := []interval{{5, 25}, {22, 28}, {45, 70}, {100, 110}}
	// Read 1 waits 5 (5..10), read 2 waits 8 (20..28), read 3 waits 5
	// (45..50), read 4 waits its whole 5.
	if got := overlapTotal(reads, writes); got != 23 {
		t.Errorf("overlapTotal = %d, want 23", got)
	}
	if got := overlapTotal(reads, nil); got != 0 {
		t.Errorf("overlap with no writes = %d, want 0", got)
	}
}

func TestLayersAggregateByName(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "op", start: 0, end: 10, parent: -1},
		{name: "inner", start: 2, end: 6, parent: 0},
		{name: "op", start: 20, end: 40, parent: -1},
		{name: "inner", start: 20, end: 40, parent: 2},
	}
	ls := tr.layers()
	if op := ls["op"]; op.count != 2 || op.selfNanos != 6 || op.durNanos != 30 {
		t.Errorf("op = %+v", op)
	}
	if in := ls["inner"]; in.count != 2 || in.selfNanos != 24 || in.durMeanMs() != 12e-6 {
		t.Errorf("inner = %+v", in)
	}
}

// TestTracerConcurrent records from several goroutines at once, as the
// churn workload's reader, writer and checkpointer do.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				root := tr.begin("op", -1, g*1000+i)
				tr.end(tr.begin("inner", root, g*1000+i))
				tr.add("ops", 1)
				tr.end(root)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	ls := tr.layers()
	if ls["op"].count != 800 || ls["inner"].count != 800 || tr.counts["ops"] != 800 {
		t.Errorf("op %d, inner %d, ops %v; want 800 each", ls["op"].count, ls["inner"].count, tr.counts["ops"])
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("op", -1, 0))
	nilTracer.add("ops", 1)
}
