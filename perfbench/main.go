// Command perfbench is the repository's end-to-end benchmark. It drives
// the serving, durability and traffic layers from outside through their
// public functions on seeded inputs, checks every output it can, and
// prints one JSON result line last:
//
//	perfbench --workload quote --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is a separate run that records spans around the calls into each layer
// and reports per-layer metrics. See README.md for the workloads, the
// metrics and why they were chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer list every reported metric with its unit; each
// run reports all of one list (0 for a layer the workload bypasses).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"serve.http_ms", "ms"},
	{"serve.price_join_ms", "ms"},
	{"growth.join_probs_ms", "ms"},
	{"core.evaluator_ms", "ms"},
	{"core.greedy_ms", "ms"},
	{"core.evaluations_per_read", "count"},
	{"core.probe_yield", "ratio"},
	{"serve.read_wait_ms", "ms"},
	{"serve.write_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"core.tick_price_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.bytes_per_record", "B"},
	{"graph.fold_close_ms", "ms"},
	{"graph.fold_close_rows", "count"},
	{"growth.refresh_ms", "ms"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.mb", "MB"},
	{"durable.checkpoints", "count"},
	{"serve.open_ms", "ms"},
	{"checkpoint.read_ms", "ms"},
	{"graph.transpose_ms", "ms"},
	{"wal.read_ms", "ms"},
	{"serve.replay_ms", "ms"},
	{"graph.all_pairs_build_s", "s"},
	{"traffic.sampler_build_ms", "ms"},
	{"traffic.sample_us", "us"},
	{"traffic2.route_us", "us"},
	{"traffic2.success_share", "ratio"},
	{"traffic2.retry_share", "ratio"},
	{"traffic2.depleted_arcs", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.traced_mean_ms", "ms"},
	{"trace.blocking_path_ms", "ms"},
	{"trace.coverage", "ratio"},
}

// options are the command-line inputs of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is a private scratch directory inside the working directory,
	// removed when the run ends.
	dir string
}

// opCount tallies one operation type of one phase.
type opCount struct{ attempted, ok, failed int }

// report is what a workload hands back: metrics, checks and the
// per-phase operation tallies.
type report struct {
	metrics map[string]float64
	checks  []check
	ops     map[string]*opCount
	lines   []string
}

type check struct {
	name string
	err  error
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, ops: map[string]*opCount{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

// op counts one attempted operation of a phase; err != nil marks it failed.
func (r *report) op(phase, kind string, err error) {
	key := phase + "/" + kind
	c := r.ops[key]
	if c == nil {
		c = &opCount{}
		r.ops[key] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
	} else {
		c.ok++
	}
}

// timingLine prints a timing as its median and the highest percentile
// with at least ten samples beyond it, with the sample count.
func (r *report) timingLine(name string, t timing) {
	s := t.sorted()
	line := fmt.Sprintf("timing %s: n=%d p50=%.3fms mean=%.3fms", name, len(s), quantile(s, 50), t.mean())
	if p, ok := tailPercentile(len(s), 10); ok && p > 50 {
		line += fmt.Sprintf(" p%g=%.3fms", p, quantile(s, p))
	}
	if len(s) > 0 {
		line += fmt.Sprintf(" max=%.3fms", s[len(s)-1])
	}
	r.lines = append(r.lines, line)
}

var workloads = map[string]func(options) (*report, error){
	"quote":         runQuote,
	"churn-durable": runChurn,
	"recover":       runRecover,
	"replay-10k":    runReplay,
}

func main() {
	workload := flag.String("workload", "", "workload name: quote, churn-durable, recover or replay-10k")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans instead of end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	build := filepath.Join(wd, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	rep, err := run(o)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	emit(*workload, o, rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable lines, then the JSON result line.
func emit(workload string, o options, rep *report) {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", workload, o.seed, o.seconds, o.trace)
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	keys := make([]string, 0, len(rep.ops))
	for k := range rep.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attempted, failed := 0, 0
	for _, k := range keys {
		c := rep.ops[k]
		fmt.Fprintf(out, "ops %s: attempted %d ok %d failed %d\n", k, c.attempted, c.ok, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	correct := true
	for _, c := range rep.checks {
		if c.err != nil {
			correct = false
			fmt.Fprintf(out, "check %s: FAIL: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(out, "check %s: ok\n", c.name)
		}
	}
	if attempted > 0 {
		fmt.Fprintf(out, "fail_share %g (%d of %d)\n", float64(failed)/float64(attempted), failed, attempted)
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	ms := map[string]metric{}
	for _, m := range list {
		v := rep.metrics[m.name]
		fmt.Fprintf(out, "metric %s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v, correct = 0, false // JSON has no infinities; the run failed anyway
		}
		ms[m.name] = metric{Value: v, Unit: m.unit}
	}
	if attempted == 0 {
		correct, attempted = false, 1
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": ms})
	out.Write(line)
	out.WriteString("\n")
}

// runtimeCounters samples the runtime at a phase boundary.
type runtimeCounters struct {
	gcCycles   float64
	gcPauseS   float64
	allocBytes float64
}

func readRuntime() runtimeCounters {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/pauses:seconds"},
	}
	metrics.Read(samples)
	var c runtimeCounters
	if samples[0].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = float64(samples[1].Value.Uint64())
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			// Open-ended buckets count at their finite edge.
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			c.gcPauseS += float64(n) * (lo + hi) / 2
		}
	}
	return c
}

// phaseRuntime reports the runtime counters of a phase per operation.
func (r *report) phaseRuntime(before, after runtimeCounters, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_kb_per_op", (after.allocBytes-before.allocBytes)/1024/float64(ops))
	r.set("runtime.gc_cycles", after.gcCycles-before.gcCycles)
	r.set("runtime.gc_pause_ms", (after.gcPauseS-before.gcPauseS)*1000)
	r.printf("runtime: %d ops, %.1f KB allocated per op, %g GC cycles, %.3f ms GC pause total",
		ops, (after.allocBytes-before.allocBytes)/1024/float64(ops), after.gcCycles-before.gcCycles, (after.gcPauseS-before.gcPauseS)*1000)
}

// peakRSSMB reports the process's high-water resident set: ru_maxrss,
// the same counter /proc/self/status shows as VmHWM, read without
// touching a file outside the checkout.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}

// medianSetup runs set-up k times, keeping the last result, and reports
// the median duration. Each earlier result is released before the next
// set-up so peak memory reflects one live instance.
func medianSetup[T any](k int, setup func() (T, error), release func(T) error) (T, float64, error) {
	var last T
	var times timing
	for i := 0; i < k; i++ {
		runtime.GC()
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i < k-1 {
			if err := release(v); err != nil {
				return last, 0, err
			}
		}
		last = v
	}
	runtime.GC()
	return last, times.median(), nil
}
