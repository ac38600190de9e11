package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/lightning-creation-games/lcg/internal/checkpoint"
	"github.com/lightning-creation-games/lcg/internal/serve"
	"github.com/lightning-creation-games/lcg/internal/wal"
)

// crashSuffix is the fixed WAL suffix the crash leaves past the newest
// checkpoint: four 1-arrival ticks, one 2-arrival tick and three closes
// of nodes those ticks added, in seeded order, so every seed replays the
// same amount of work.
var crashSuffix = []write{
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 1},
	{kind: writeTick, arrivals: 1}, {kind: writeTick, arrivals: 2},
	{kind: writeClose}, {kind: writeClose}, {kind: writeClose},
}

// runRecover is the crash-recovery workload: a durable session takes the
// fixed suffix of fsynced writes and is abandoned without Close; each
// operation is serve.Open on a fresh copy of that state.
func runRecover(o options) (*report, error) {
	rep := newReport()
	d, crashDir, err := openDurable(o, rep, serve.DurableConfig{})
	if err != nil {
		return nil, fmt.Errorf("recover setup: %w", err)
	}

	h := serve.NewHandler(d.S)
	mix := newWriteMix(o.seed+3, crashSuffix, 0)
	for range crashSuffix {
		w := mix.next()
		status, out, _ := call(h, w.path(), w.body(), nil, "", 0)
		r, err := parseReply(status, out)
		rep.op("crash", w.String(), err)
		if err != nil {
			return nil, fmt.Errorf("crash suffix %s: %w", w, err)
		}
		mix.observe(w, r)
	}
	// No Close: the directory now holds exactly what a crash leaves — the
	// seed checkpoint plus an fsynced WAL suffix.
	wantEpoch := d.S.Epoch()
	var want bytes.Buffer
	if err := d.S.Checkpoint(&want); err != nil {
		return nil, err
	}

	var tr *tracer
	var lat timing
	var recoverS float64
	var recErr error
	recoverOnce := func(phase string, i int) error {
		dir := filepath.Join(o.dir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(crashDir, dir); err != nil {
			return err
		}
		// Each recovery starts from a collected heap, as a restarted process
		// would.
		runtime.GC()
		id := tr.begin("serve.open", -1, i)
		t := time.Now()
		r, err := serve.Open(serve.DurableConfig{Dir: dir}, serveConfig(), nil)
		took := time.Since(t)
		tr.end(id)
		if err == nil {
			err = checkRecovered(r, wantEpoch, want.Bytes())
			if cerr := r.Close(); err == nil {
				err = cerr
			}
		}
		if err == nil && tr != nil {
			runtime.GC() // the shadow starts from a collected heap too
			err = shadowOpen(tr, dir, i)
		}
		rep.op(phase, "recover", err)
		if err != nil {
			recErr = err
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(took))
			recoverS += took.Seconds()
		}
		return os.RemoveAll(dir)
	}
	runFor := func(phase string, dur time.Duration) (timing, float64, error) {
		lat, recoverS = nil, 0
		start := time.Now()
		for i := 0; time.Since(start) < dur; i++ {
			if err := recoverOnce(phase, i); err != nil {
				return nil, 0, err
			}
		}
		return lat, recoverS, nil
	}

	if !o.trace {
		before := readRuntime()
		lat, total, err := runFor("measure", seconds(o.seconds))
		if err != nil {
			return nil, err
		}
		rep.phaseRuntime(before, readRuntime(), len(lat))
		rep.timingLine("measure recover", lat)
		rep.set("p50_ms", lat.median())
		ok := 0
		for _, l := range lat {
			if !math.IsInf(l, 1) {
				ok++
			}
		}
		rep.set("ops_per_s", float64(ok)/total)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
		rep.check(fmt.Sprintf("recovery lands on epoch %d with %d WAL records, no rebuild, checkpoint byte-equal", wantEpoch, len(crashSuffix)), recErr)
		return rep, nil
	}

	before := readRuntime()
	ref, _, err := runFor("reference", seconds(o.seconds/3))
	if err != nil {
		return nil, err
	}
	rep.phaseRuntime(before, readRuntime(), len(ref))
	rep.timingLine("reference recover", ref)
	tr = newTracer()
	traced, _, err := runFor("traced", seconds(o.seconds*2/3))
	if err != nil {
		return nil, err
	}
	rep.timingLine("traced recover", traced)
	ls := tr.layers()
	parts := 0.0
	for _, name := range []string{"checkpoint.read", "graph.transpose", "wal.read", "serve.replay"} {
		rep.set(name+"_ms", ls[name].selfMeanMs())
		parts += ls[name].selfMeanMs()
	}
	rep.set("serve.open_ms", ls["serve.open"].durMeanMs())
	rep.traceSummary(ref, traced, parts)
	rep.check(fmt.Sprintf("recovery lands on epoch %d with %d WAL records, no rebuild, checkpoint byte-equal", wantEpoch, len(crashSuffix)), recErr)
	return rep, nil
}

// checkRecovered verifies a recovery: the last acknowledged epoch, the
// whole fixed suffix replayed, no all-pairs rebuild, and a checkpoint
// byte-equal to the crashed session's.
func checkRecovered(r *serve.Durable, epoch uint64, want []byte) error {
	if got := r.S.Epoch(); got != epoch {
		return fmt.Errorf("recovered epoch %d, want %d", got, epoch)
	}
	if r.RecoveredWALRecords != len(crashSuffix) {
		return fmt.Errorf("replayed %d WAL records, want %d", r.RecoveredWALRecords, len(crashSuffix))
	}
	if n := r.S.RebuildCount(); n != 0 {
		return fmt.Errorf("recovery paid %d all-pairs rebuilds", n)
	}
	cmp := &compareWriter{want: want}
	if err := r.S.Checkpoint(cmp); err != nil {
		return err
	}
	if cmp.diff || cmp.off != len(want) {
		return fmt.Errorf("recovered checkpoint differs from the crashed session's (%d of %d bytes matched)", cmp.off, len(want))
	}
	return nil
}

// compareWriter checks a stream against want as it is written.
type compareWriter struct {
	want []byte
	off  int
	diff bool
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if !c.diff {
		if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
			c.diff = true
		} else {
			c.off += len(p)
		}
	}
	return len(p), nil
}

// shadowOpen decomposes a recovery of dir into its layers: decoding the
// newest checkpoint, transposing its plane, reading the WAL, and
// replaying the suffix through the session's public mutations.
func shadowOpen(tr *tracer, dir string, req int) error {
	root := tr.begin("shadow.open", -1, req)
	defer tr.end(root)
	names, err := wal.OS{}.List(dir)
	if err != nil {
		return err
	}
	var ckpts []string
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			ckpts = append(ckpts, n)
		}
	}
	if len(ckpts) == 0 {
		return errors.New("no checkpoint to shadow")
	}
	sort.Strings(ckpts)
	path := filepath.Join(dir, ckpts[len(ckpts)-1])

	id := tr.begin("checkpoint.read", root, req)
	snap, err := readCheckpoint(path)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("graph.transpose", root, req)
	snap.Plane.TransposedParallel(1)
	tr.end(id)
	id = tr.begin("wal.read", root, req)
	log, err := wal.ReadAll(wal.OS{}, dir)
	var suffix []wal.Record
	if err == nil {
		suffix, err = log.Suffix(snap.Epoch)
	}
	tr.end(id)
	if err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	s, err := serve.Restore(f, serveConfig())
	f.Close()
	if err != nil {
		return err
	}
	id = tr.begin("serve.replay", root, req)
	defer tr.end(id)
	for _, rec := range suffix {
		switch rec.Kind {
		case wal.KindTick:
			_, _, err = s.Tick(rec.Arrivals, rec.Seed)
		case wal.KindClose:
			_, _, err = s.Close(rec.Node)
		case wal.KindRefresh:
			_, err = s.Refresh()
		default:
			err = fmt.Errorf("unexpected %s record", rec.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func readCheckpoint(path string) (*checkpoint.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return checkpoint.Read(f)
}

// copyDir copies the regular files of src into a new directory dst.
// Checkpoints, which recovery only reads, are hard-linked rather than
// copied.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if strings.HasPrefix(e.Name(), "ckpt-") {
			if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
