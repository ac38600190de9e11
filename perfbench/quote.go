package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"github.com/lightning-creation-games/lcg/internal/serve"
	"github.com/lightning-creation-games/lcg/internal/wal"
)

// sample is a served quote kept for re-pricing on the replica.
type sample struct {
	q         serve.PriceQuery
	epoch     uint64
	objective float64
	req       int
}

// readResult is one closed-loop reader's tally for a phase.
type readResult struct {
	lat     timing // handler time in ms; failed reads count as +Inf
	count   opCount
	errs    []error
	samples []sample
	wall    time.Duration
}

// reader is the closed-loop /v1/price-join client: it sends the next
// quote only when the previous reply is back.
type reader struct {
	h    http.Handler
	gen  *quoteGen
	pick *rand.Rand
	tr   *tracer
	// direct, in a traced phase, is the served session: each quote is
	// repeated as a direct Session.PriceJoin so the handler's own share
	// shows, and every quote is kept for the replica to decompose.
	direct *serve.Session
	next   int // request id of the next read
}

// One untraced quote in sampleEvery is kept for re-pricing, up to
// maxSamples.
const sampleEvery, maxSamples = 32, 128

func (rd *reader) run(d time.Duration) readResult {
	var res readResult
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		req := rd.next
		rd.next++
		q := rd.gen.next()
		status, out, took := call(rd.h, "/v1/price-join", priceBody(q), rd.tr, "serve.http", req)
		r, err := parseReply(status, out)
		if err == nil && rd.direct != nil {
			id := rd.tr.begin("serve.price_join", -1, req)
			_, err = rd.direct.PriceJoin(q)
			rd.tr.end(id)
		}
		res.count.attempted++
		if err != nil {
			res.count.failed++
			res.lat = append(res.lat, math.Inf(1))
			if len(res.errs) < 3 {
				res.errs = append(res.errs, err)
			}
			continue
		}
		res.count.ok++
		res.lat = append(res.lat, ms(took))
		if rd.direct != nil || (rd.pick.Intn(sampleEvery) == 0 && len(res.samples) < maxSamples) {
			res.samples = append(res.samples, sample{q: q, epoch: r.Epoch, objective: r.Objective, req: req})
		}
	}
	res.wall = time.Since(start)
	return res
}

// recordReads adds a read phase's tallies to the report.
func (r *report) recordReads(phase string, res readResult) {
	c := r.ops[phase+"/read"]
	if c == nil {
		c = &opCount{}
		r.ops[phase+"/read"] = c
	}
	c.attempted += res.count.attempted
	c.ok += res.count.ok
	c.failed += res.count.failed
	r.timingLine(phase+" read", res.lat)
	for _, err := range res.errs {
		r.printf("%s read error: %v", phase, err)
	}
}

// readLayers reports the read path's per-layer metrics from a traced
// phase: the handler minus the direct PriceJoin is the HTTP layer, and
// the replica's re-pricing of the same quotes gives the join-probability,
// evaluator and greedy layers. It returns the blocking-path sum per read.
func readLayers(rep *report, tr *tracer, ls map[string]layerStats, blockers []interval) float64 {
	pj := ls["serve.price_join"].durMeanMs()
	rep.set("serve.http_ms", ls["serve.http"].durMeanMs()-pj)
	rep.set("serve.price_join_ms", pj)
	inner := 0.0
	for _, name := range []string{"growth.join_probs", "core.evaluator", "core.greedy"} {
		rep.set(name+"_ms", ls[name].selfMeanMs())
		inner += ls[name].selfMeanMs()
	}
	rep.printf("traced read: direct PriceJoin %.3fms, of which the replica's layers %.3fms", pj, inner)
	if n := tr.counts["reads.repriced"]; n > 0 {
		rep.set("core.evaluations_per_read", tr.counts["core.evaluations"]/n)
	}
	if e := tr.counts["core.evaluations"]; e > 0 {
		rep.set("core.probe_yield", tr.counts["core.chosen"]/e)
	}
	if reads := ls["serve.http"]; reads.count > 0 {
		rep.set("serve.read_wait_ms", float64(overlapTotal(reads.intervals, blockers))/float64(reads.count)/1e6)
	}
	return rep.metrics["serve.http_ms"] + inner
}

// checkSamples re-prices served quotes on the replica, which must be at
// their epoch, and compares objectives bit for bit. With a tracer each
// re-pricing is decomposed into its layers under a shadow.read span.
func checkSamples(rp *replica, samples []sample, tr *tracer) error {
	for _, sm := range samples {
		if sm.epoch != rp.epoch {
			return fmt.Errorf("sample at epoch %d checked against replica epoch %d", sm.epoch, rp.epoch)
		}
		root := tr.begin("shadow.read", -1, sm.req)
		res, err := rp.price(sm.q.Candidates, sm.q.Budget, sm.q.Lock, tr, root, sm.req)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("re-price: %w", err)
		}
		if !sameObjective(res.Objective, sm.objective) {
			return fmt.Errorf("epoch %d: replica objective %v, served %v", sm.epoch, res.Objective, sm.objective)
		}
		tr.add("reads.repriced", 1)
		tr.add("core.evaluations", float64(res.Evaluations))
		tr.add("core.chosen", float64(len(res.Strategy)))
	}
	return nil
}

// walk replays the served history on the replica — every write in the
// order the server sealed it — and re-prices each sampled quote once the
// replica reaches the quote's epoch. With a tracer, each write is
// decomposed under a shadow.write span, including its record appended
// to side, a WAL on the same filesystem.
func walk(rp *replica, log []applied, samples []sample, tr *tracer, side *wal.Writer) error {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].epoch < samples[j].epoch })
	next := 0
	flush := func() error {
		end := next
		for end < len(samples) && samples[end].epoch == rp.epoch {
			end++
		}
		err := checkSamples(rp, samples[next:end], tr)
		next = end
		return err
	}
	for _, a := range log {
		if err := flush(); err != nil {
			return err
		}
		root := tr.begin("shadow.write", -1, a.req)
		err := rp.apply(a.w, tr, root, a.req)
		if err == nil && side != nil {
			id := tr.begin("wal.append", root, a.req)
			err = side.Append(a.w.record(a.epoch))
			tr.end(id)
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replica %s: %w", a.w, err)
		}
		if rp.epoch != a.epoch {
			return fmt.Errorf("replica at epoch %d after %s, served %d", rp.epoch, a.w, a.epoch)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if next != len(samples) {
		return fmt.Errorf("%d samples at epochs the writes never reached (first %d)", len(samples)-next, samples[next].epoch)
	}
	return nil
}

// runQuote is the read-only pricing workload: one closed-loop client
// against the n=2000 substrate behind serve.NewHandler.
func runQuote(o options) (*report, error) {
	rep := newReport()
	var allPairs timing
	s, setup, err := medianSetup(setupRuns(o), func() (*serve.Session, error) {
		s, ap, err := newServeSession()
		allPairs = append(allPairs, ap.Seconds())
		return s, err
	}, func(*serve.Session) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("quote setup: %w", err)
	}
	rep.set("setup_s", setup)
	rep.set("graph.all_pairs_build_s", allPairs.median())
	rd := &reader{h: serve.NewHandler(s), gen: newQuoteGen(o.seed + 1), pick: rand.New(rand.NewSource(o.seed + 2))}

	if !o.trace {
		before := readRuntime()
		res := rd.run(seconds(o.seconds))
		rep.phaseRuntime(before, readRuntime(), res.count.attempted)
		rep.recordReads("measure", res)
		rep.set("p50_ms", res.lat.median())
		rep.set("ops_per_s", float64(res.count.ok)/res.wall.Seconds())
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
		rp, err := newReplica()
		if err != nil {
			return nil, err
		}
		rep.check("quote replies re-priced bit for bit on the replica", checkSamples(rp, res.samples, nil))
		rep.check("quote samples taken", nonEmpty(len(res.samples)))
		return rep, nil
	}

	before := readRuntime()
	ref := rd.run(seconds(o.seconds / 3))
	rep.phaseRuntime(before, readRuntime(), ref.count.attempted)
	rep.recordReads("reference", ref)
	tr := newTracer()
	rd.tr, rd.direct = tr, s
	traced := rd.run(seconds(o.seconds * 2 / 3))
	rep.recordReads("traced", traced)
	rp, err := newReplica()
	if err != nil {
		return nil, err
	}
	rep.check("every traced quote re-priced bit for bit on the replica", checkSamples(rp, traced.samples, tr))
	ls := tr.layers()
	rep.traceSummary(ref.lat, traced.lat, readLayers(rep, tr, ls, nil))
	return rep, nil
}

// traceSummary compares the foreground operation's untraced and traced
// latencies (the tracing overhead, on medians) and reports how much of
// the traced mean the blocking path's layer times account for.
func (r *report) traceSummary(untraced, traced timing, blocking float64) {
	u, t := untraced.median(), traced.median()
	r.set("trace.untraced_p50_ms", u)
	r.set("trace.traced_p50_ms", t)
	if u > 0 {
		r.set("trace.overhead_pct", (t/u-1)*100)
	}
	mean := traced.mean()
	r.set("trace.traced_mean_ms", mean)
	r.set("trace.blocking_path_ms", blocking)
	if mean > 0 {
		r.set("trace.coverage", blocking/mean)
	}
	r.printf("trace: p50 untraced %.3fms traced %.3fms; traced mean %.3fms, blocking-path layers sum to %.3fms", u, t, mean, blocking)
}

func nonEmpty(n int) error {
	if n == 0 {
		return errors.New("no samples")
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupRuns is how many times a serving run sets up its substrate: the
// median of several is the reported set-up time; a traced run sets up
// once.
func setupRuns(o options) int {
	if o.trace {
		return 1
	}
	return 3
}
