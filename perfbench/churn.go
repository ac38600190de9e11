package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-creation-games/lcg/internal/graph"
	"github.com/lightning-creation-games/lcg/internal/serve"
	"github.com/lightning-creation-games/lcg/internal/wal"
)

const (
	// writeRate is the open-loop writer's schedule, writes per second —
	// about a sixth of what the write path sustains, so the writer never
	// saturates and lateness measures stalls, not overload. At 4 writes/s
	// the write median came from too few samples and spread twice as
	// much between runs.
	writeRate = 8
	// checkpointEvery is the checkpointer's mutation-count trigger; with
	// no timer trigger, a run of fixed length completes a fixed number of
	// checkpoint cycles (one every four seconds).
	checkpointEvery = 32
	// refreshEvery places one /v1/refresh at a fixed position in every
	// that many writes: one refresh in a run of 16 to 31 seconds.
	refreshEvery = 128
)

type writeKind int

const (
	writeTick writeKind = iota
	writeClose
	writeRefresh
)

// write is one mutation the writer sends.
type write struct {
	kind     writeKind
	arrivals int
	seed     int64
	node     graph.NodeID
}

func (w write) String() string {
	switch w.kind {
	case writeTick:
		return "tick"
	case writeClose:
		return "close"
	default:
		return "refresh"
	}
}

func (w write) path() string { return "/v1/" + w.String() }

func (w write) body() []byte {
	var v any = struct{}{}
	switch w.kind {
	case writeTick:
		v = map[string]any{"arrivals": w.arrivals, "seed": w.seed}
	case writeClose:
		v = map[string]any{"node": int(w.node)}
	}
	b, _ := json.Marshal(v)
	return b
}

func (w write) record(epoch uint64) wal.Record {
	switch w.kind {
	case writeTick:
		return wal.Record{Epoch: epoch, Kind: wal.KindTick, Arrivals: w.arrivals, Seed: w.seed}
	case writeClose:
		return wal.Record{Epoch: epoch, Kind: wal.KindClose, Node: w.node}
	default:
		return wal.Record{Epoch: epoch, Kind: wal.KindRefresh}
	}
}

// writeMix draws a seeded write sequence in blocks: each block is a
// shuffle of a fixed template, so every run carries the same proportions.
// A close departs a seeded node among those that joined through the
// mix's own ticks and are still alive; a close drawn before any such
// node exists moves to the end of its block.
type writeMix struct {
	rng      *rand.Rand
	template []write
	// refreshEvery, when positive, gives a refresh one fixed slot in every
	// refreshEvery writes.
	refreshEvery int
	block        []write
	issued       int
	arrivals     []graph.NodeID // joined through a tick, still alive
	nodes        int
}

// churnBlock is the serving write mix: ten 1-arrival ticks, two
// 2-arrival ticks and four closes per 16 writes. The 1-arrival ticks span
// the middle of the latency distribution, so the median write sits inside
// one kind of work rather than on the edge between two.
var churnBlock = []write{
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1},
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1},
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1},
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 2}, {kind: writeTick, arrivals: 2},
	{kind: writeClose}, {kind: writeClose}, {kind: writeClose}, {kind: writeClose},
}

func newWriteMix(seed int64, template []write, refreshEvery int) *writeMix {
	return &writeMix{rng: rand.New(rand.NewSource(seed)), template: template, refreshEvery: refreshEvery, nodes: substrateN}
}

func (m *writeMix) next() write {
	i := m.issued
	m.issued++
	if m.refreshEvery > 0 && i%m.refreshEvery == m.refreshEvery-8 {
		return write{kind: writeRefresh}
	}
	if len(m.block) == 0 {
		m.block = append(m.block, m.template...)
		m.rng.Shuffle(len(m.block), func(a, b int) { m.block[a], m.block[b] = m.block[b], m.block[a] })
	}
	k := 0
	for k < len(m.block)-1 && m.block[k].kind == writeClose && len(m.arrivals) == 0 {
		k++
	}
	w := m.block[k]
	m.block = append(m.block[:k], m.block[k+1:]...)
	if w.kind == writeClose && len(m.arrivals) == 0 {
		w = write{kind: writeTick, arrivals: 1} // only after a failed tick
	}
	switch w.kind {
	case writeTick:
		w.seed = m.rng.Int63()
	case writeClose:
		j := m.rng.Intn(len(m.arrivals))
		w.node = m.arrivals[j]
		m.arrivals = append(m.arrivals[:j], m.arrivals[j+1:]...)
	}
	return w
}

// observe folds a write's reply into what the mix knows: a tick's
// arrivals take the next node identifiers.
func (m *writeMix) observe(w write, r reply) {
	if w.kind != writeTick {
		return
	}
	for i := 0; i < r.Committed; i++ {
		m.arrivals = append(m.arrivals, graph.NodeID(m.nodes))
		m.nodes++
	}
}

// applied is a served write with the epoch it sealed.
type applied struct {
	w     write
	epoch uint64
	req   int
}

// writeResult is the open-loop writer's tally for a phase.
type writeResult struct {
	lat    timing // from due time, ms; failed writes count as +Inf
	lag    timing // generator lateness: start minus due, ms
	byKind map[string]timing
	counts map[string]*opCount
	log    []applied
	errs   []error
}

// writer is the open-loop mutation client: write i is due at
// start + i/writeRate whether or not earlier writes have finished, and
// is timed from when it was due.
type writer struct {
	h    http.Handler
	mix  *writeMix
	tr   *tracer
	next int
}

func (wr *writer) run(d time.Duration) writeResult {
	res := writeResult{byKind: map[string]timing{}, counts: map[string]*opCount{}}
	start := time.Now()
	interval := time.Second / writeRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		res.lag = append(res.lag, ms(time.Since(due)))
		req := wr.next
		wr.next++
		w := wr.mix.next()
		status, out, _ := call(wr.h, w.path(), w.body(), wr.tr, "serve.write", req)
		took := ms(time.Since(due))
		r, err := parseReply(status, out)
		c := res.counts[w.String()]
		if c == nil {
			c = &opCount{}
			res.counts[w.String()] = c
		}
		c.attempted++
		if err != nil {
			c.failed++
			res.lat = append(res.lat, math.Inf(1))
			if len(res.errs) < 3 {
				res.errs = append(res.errs, fmt.Errorf("%s: %w", w, err))
			}
			continue
		}
		c.ok++
		wr.mix.observe(w, r)
		res.lat = append(res.lat, took)
		res.byKind[w.String()] = append(res.byKind[w.String()], took)
		res.log = append(res.log, applied{w: w, epoch: r.Epoch, req: req})
	}
	return res
}

func (r *report) recordWrites(phase string, res writeResult) {
	for kind, c := range res.counts {
		key := phase + "/" + kind
		if r.ops[key] == nil {
			r.ops[key] = &opCount{}
		}
		r.ops[key].attempted += c.attempted
		r.ops[key].ok += c.ok
		r.ops[key].failed += c.failed
	}
	r.timingLine(phase+" write (from due)", res.lat)
	for _, kind := range []string{"tick", "close", "refresh"} {
		if t := res.byKind[kind]; len(t) > 0 {
			r.timingLine(phase+" write "+kind, t)
		}
	}
	lag := res.lag.sorted()
	if len(lag) > 0 {
		r.printf("%s writer lateness: n=%d p50=%.3fms max=%.3fms", phase, len(lag), quantile(lag, 50), lag[len(lag)-1])
	}
	for _, err := range res.errs {
		r.printf("%s write error: %v", phase, err)
	}
}

// traceFS is the durable layer's filesystem seen through the FS seam:
// it counts checkpoint cycles and bytes, and in a traced phase records
// one checkpoint.write span from the temp file's creation to its rename
// (encode, write, fsync, close).
type traceFS struct {
	wal.FS
	tr          atomic.Pointer[tracer]
	checkpoints atomic.Int64
	bytes       atomic.Int64

	// The checkpointer writes one temp file at a time; mu guards the span
	// of the one in flight.
	mu     sync.Mutex
	openTr *tracer
	openID int
}

type countingFile struct {
	wal.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func isCheckpointTemp(path string) bool { return filepath.Base(path) == "ckpt.tmp" }

func (f *traceFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil || !isCheckpointTemp(path) {
		return file, err
	}
	tr := f.tr.Load()
	f.mu.Lock()
	f.openTr, f.openID = tr, tr.begin("checkpoint.write", -1, -1)
	f.mu.Unlock()
	return countingFile{file, &f.bytes}, nil
}

func (f *traceFS) Rename(oldPath, newPath string) error {
	err := f.FS.Rename(oldPath, newPath)
	if isCheckpointTemp(oldPath) && err == nil {
		f.mu.Lock()
		f.openTr.end(f.openID)
		f.mu.Unlock()
		f.checkpoints.Add(1)
	}
	return err
}

// runChurn is the durable read/write workload: the quote reader and an
// open-loop writer against one session inside serve.Open, with the WAL
// fsyncing every record on the real filesystem and the checkpointer on a
// mutation-count trigger.
func runChurn(o options) (*report, error) {
	rep := newReport()
	fsys := &traceFS{FS: wal.OS{}}
	d, _, err := openDurable(o, rep, serve.DurableConfig{FS: fsys, CheckpointMutations: checkpointEvery})
	if err != nil {
		return nil, fmt.Errorf("churn setup: %w", err)
	}
	h := serve.NewHandler(d.S)
	rd := &reader{h: h, gen: newQuoteGen(o.seed + 1), pick: rand.New(rand.NewSource(o.seed + 2))}
	wr := &writer{h: h, mix: newWriteMix(o.seed+3, churnBlock, refreshEvery)}

	// phase runs the reader and the writer side by side for dur.
	phase := func(name string, dur time.Duration) (readResult, writeResult) {
		var rres readResult
		var wres writeResult
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rres = rd.run(dur)
		}()
		go func() {
			defer wg.Done()
			wres = wr.run(dur)
		}()
		wg.Wait()
		rep.recordReads(name, rres)
		rep.recordWrites(name, wres)
		return rres, wres
	}

	if !o.trace {
		before := readRuntime()
		ckptBefore := fsys.checkpoints.Load()
		start := time.Now()
		rres, wres := phase("measure", seconds(o.seconds))
		wall := time.Since(start)
		rep.phaseRuntime(before, readRuntime(), rres.count.attempted+len(wres.lat))
		rep.set("p50_ms", wres.lat.median())
		rep.set("ops_per_s", float64(rres.count.ok+len(wres.log))/wall.Seconds())
		rep.printf("checkpoints completed while measuring: %d", fsys.checkpoints.Load()-ckptBefore)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
		if err := d.Close(); err != nil {
			return nil, fmt.Errorf("churn close: %w", err)
		}
		rp, err := newReplica()
		if err != nil {
			return nil, err
		}
		rep.check("churn writes replayed and quotes re-priced bit for bit at their epochs", walk(rp, wres.log, rres.samples, nil, nil))
		rep.check("churn quote samples taken", nonEmpty(len(rres.samples)))
		return rep, nil
	}

	// Traced run. The reference phase runs exactly as an untraced run
	// does. The traced phase records handler, direct-PriceJoin and
	// checkpoint spans live; the layer decomposition of its writes and
	// quotes happens afterwards on the replica, so the open-loop writer
	// keeps its schedule.
	before := readRuntime()
	ref, refW := phase("reference", seconds(o.seconds/3))
	rep.phaseRuntime(before, readRuntime(), ref.count.attempted+len(refW.lat))
	ckptBefore, bytesBefore := fsys.checkpoints.Load(), fsys.bytes.Load()
	tr := newTracer()
	rd.tr, rd.direct, wr.tr = tr, d.S, tr
	fsys.tr.Store(tr)
	traced, tracedW := phase("traced", seconds(o.seconds*2/3))
	fsys.tr.Store(nil)
	ckpts := fsys.checkpoints.Load() - ckptBefore
	ckptBytes := fsys.bytes.Load() - bytesBefore
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("churn close: %w", err)
	}

	rp, err := newReplica()
	if err != nil {
		return nil, err
	}
	if err := walk(rp, refW.log, nil, nil, nil); err != nil {
		return nil, fmt.Errorf("replica catch-up: %w", err)
	}
	sideDir := filepath.Join(o.dir, "side-wal")
	side, err := wal.Create(wal.OS{}, sideDir, wal.SyncPolicy{})
	if err != nil {
		return nil, err
	}
	sideBase := dirBytes(sideDir)
	rep.check("traced writes replayed and every traced quote re-priced bit for bit", walk(rp, tracedW.log, traced.samples, tr, side))
	if err := side.Close(); err != nil {
		return nil, err
	}

	ls := tr.layers()
	blockers := append(append([]interval(nil), ls["serve.write"].intervals...), ls["checkpoint.write"].intervals...)
	readLayers(rep, tr, ls, blockers)
	writes := float64(len(tracedW.lat))
	perKind := func(name, kind string) float64 {
		if n := countOf(tracedW, kind); n > 0 {
			return float64(ls[name].selfNanos) / n / 1e6
		}
		return 0
	}
	rep.set("core.tick_price_ms", perKind("core.tick_price", "tick"))
	rep.set("core.commit_ms", perKind("core.commit", "tick"))
	rep.set("graph.fold_close_ms", perKind("graph.fold_close", "close"))
	if n := countOf(tracedW, "close"); n > 0 {
		rep.set("graph.fold_close_rows", tr.counts["graph.fold_close_rows"]/n)
	}
	rep.set("growth.refresh_ms", perKind("growth.refresh", "refresh"))
	rep.set("wal.append_ms", ls["wal.append"].selfMeanMs())
	if n := ls["wal.append"].count; n > 0 {
		rep.set("wal.bytes_per_record", float64(dirBytes(sideDir)-sideBase)/float64(n))
	}
	rep.set("durable.checkpoints", float64(ckpts))
	rep.set("checkpoint.write_ms", ls["checkpoint.write"].selfMeanMs())
	if ckpts > 0 {
		rep.set("checkpoint.mb", float64(ckptBytes)/float64(ckpts)/1e6)
	}
	rep.set("serve.gen_lag_ms", tracedW.lag.mean())
	rep.set("serve.write_ms", ls["serve.write"].durMeanMs())

	// A write's blocking path: generator lateness, the core work the
	// replica timed, the WAL append, and the wait behind a checkpoint
	// holding the session's read lock.
	var core float64
	for _, name := range []string{"core.tick_price", "core.commit", "graph.fold_close", "growth.refresh"} {
		core += float64(ls[name].selfNanos)
	}
	corePerWrite := core / writes / 1e6
	ckptWait := float64(overlapTotal(ls["serve.write"].intervals, ls["checkpoint.write"].intervals)) / writes / 1e6
	rep.printf("traced write path per write: lateness %.3fms, core %.3fms, wal %.3fms, checkpoint wait %.3fms, handler %.3fms",
		tracedW.lag.mean(), corePerWrite, rep.metrics["wal.append_ms"], ckptWait, rep.metrics["serve.write_ms"])
	rep.traceSummary(refW.lat, tracedW.lat, tracedW.lag.mean()+corePerWrite+rep.metrics["wal.append_ms"]+ckptWait)
	return rep, nil
}

// openDurable sets up a durable serving session in a fresh directory
// under o.dir — the median of setupRuns set-ups is the run's setup_s —
// and returns it with its directory. dcfg supplies everything but Dir.
func openDurable(o options, rep *report, dcfg serve.DurableConfig) (*serve.Durable, string, error) {
	var allPairs timing
	var dir string
	d, setup, err := medianSetup(setupRuns(o), func() (*serve.Durable, error) {
		dir = filepath.Join(o.dir, fmt.Sprintf("state-%d", len(allPairs)))
		dcfg.Dir = dir
		return serve.Open(dcfg, serveConfig(), func() (*serve.Session, error) {
			s, ap, err := newServeSession()
			allPairs = append(allPairs, ap.Seconds())
			return s, err
		})
	}, func(d *serve.Durable) error {
		if err := d.Close(); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, "", err
	}
	rep.set("setup_s", setup)
	rep.set("graph.all_pairs_build_s", allPairs.median())
	return d, dir, nil
}

func countOf(res writeResult, kind string) float64 {
	if c := res.counts[kind]; c != nil {
		return float64(c.ok)
	}
	return 0
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
