package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing's tail is reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond samples beyond it among n, so a reported tail is never
// set by a handful of outliers. ok is false when even the median has
// fewer than minBeyond samples above it.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= float64(minBeyond)-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo] // exact rank: no interpolation toward a failed (+Inf) sample
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// timing is a set of latency samples in milliseconds.
type timing []float64

func (t timing) sorted() []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

func (t timing) median() float64 { return quantile(t.sorted(), 50) }

func (t timing) mean() float64 {
	if len(t) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time range [start, end) in nanoseconds since
// the tracer's origin.
type interval struct{ start, end int64 }

// union merges intervals into a sorted list of disjoint ranges.
func union(in []interval) []interval {
	s := append([]interval(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, iv := range s {
		if iv.end <= iv.start {
			continue
		}
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of iv the disjoint sorted ranges u cover.
func covered(iv interval, u []interval) int64 {
	// First range that ends after iv starts.
	i := sort.Search(len(u), func(i int) bool { return u[i].end > iv.start })
	var total int64
	for ; i < len(u) && u[i].start < iv.end; i++ {
		lo, hi := max(u[i].start, iv.start), min(u[i].end, iv.end)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// overlapTotal sums, over every interval of a, the part of it that any
// interval of b covers — the time reads spent while a write or
// checkpoint was in flight.
func overlapTotal(a, b []interval) int64 {
	u := union(b)
	var total int64
	for _, iv := range a {
		total += covered(iv, u)
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of it its child spans cover (children overlapping each other count
// once; the part of a child outside its parent is ignored).
func selfTimes(spans []span) []int64 {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := interval{s.start, s.end}
		out[i] = (s.end - s.start) - covered(iv, union(children[i]))
	}
	return out
}
