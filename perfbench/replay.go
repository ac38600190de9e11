package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/lightning-creation-games/lcg/internal/fee"
	"github.com/lightning-creation-games/lcg/internal/graph"
	"github.com/lightning-creation-games/lcg/internal/traffic"
	"github.com/lightning-creation-games/lcg/internal/traffic2"
	"github.com/lightning-creation-games/lcg/internal/txdist"
)

const (
	replayN = 10000
	// replayEvents is one replay job: the T-series acceptance size of the
	// distance row, 6250 events per shard across 8 shards.
	replayEvents = 50000
)

var replayDist = txdist.DistanceDecay{Decay: 0.1}

// replayInput is the replay substrate of a seed.
type replayInput struct {
	g     *graph.Graph
	rates []float64
}

func newReplayInput() (replayInput, time.Duration, error) {
	g := graph.BarabasiAlbert(replayN, 2, 10, rand.New(rand.NewSource(substrateSeed)))
	rates := make([]float64, g.NumNodes())
	for i := range rates {
		rates[i] = 1
	}
	t := time.Now()
	_, err := traffic.NewSampler(g, replayDist, rates)
	return replayInput{g, rates}, time.Since(t), err
}

func replayConfig(sampler traffic.Sampler, seed int64, parallelism int) traffic2.Config {
	return traffic2.Config{
		Sampler:        sampler,
		Sizes:          fee.UniformSize{T: 2},
		Fee:            fee.Linear{Base: 0.01, Rate: 0.001},
		Events:         replayEvents,
		Seed:           seed,
		Shards:         8,
		Parallelism:    parallelism,
		RebalanceEvery: 500,
	}
}

// job is one replay as a batch user runs it: a fresh sampler, whose
// per-sender rows are built lazily on first draw, then the replay.
func (in replayInput) job(seed int64, parallelism int) (*traffic2.Result, error) {
	sampler, err := traffic.NewSampler(in.g, replayDist, in.rates)
	if err != nil {
		return nil, err
	}
	return traffic2.Replay(in.g, replayConfig(sampler, seed, parallelism))
}

// sameReplay compares the outcome counters of two replays exactly.
func sameReplay(a, b *traffic2.Result) error {
	if a.Events != b.Events || a.Successes != b.Successes || a.Failures != b.Failures || a.Retried != b.Retried ||
		math.Float64bits(a.FeesPaid) != math.Float64bits(b.FeesPaid) {
		return fmt.Errorf("replay %d/%d/%d/%d fees %v differs from %d/%d/%d/%d fees %v (events/successes/failures/retried)",
			a.Events, a.Successes, a.Failures, a.Retried, a.FeesPaid, b.Events, b.Successes, b.Failures, b.Retried, b.FeesPaid)
	}
	return nil
}

// runReplay is the batch workload: repeated single-worker replays of
// the same seeded 50k-event job on the n=10000 substrate.
func runReplay(o options) (*report, error) {
	rep := newReport()
	runs := 5
	if o.trace {
		runs = 1
	}
	var build timing
	in, setup, err := medianSetup(runs, func() (replayInput, error) {
		in, b, err := newReplayInput()
		build = append(build, ms(b))
		return in, err
	}, func(replayInput) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("replay setup: %w", err)
	}
	rep.set("setup_s", setup)
	rep.set("traffic.sampler_build_ms", build.median())

	var first *traffic2.Result
	var mismatch error
	// jobs runs untraced jobs until the next one would overrun dur.
	jobs := func(phase string, dur time.Duration) (timing, int) {
		var lat timing
		routed := 0
		start := time.Now()
		for len(lat) == 0 || time.Since(start)+seconds(lat.mean()/1000) <= dur {
			// Each job starts from a collected heap, as a fresh process would.
			runtime.GC()
			t := time.Now()
			res, err := in.job(o.seed, 1)
			took := time.Since(t)
			rep.op(phase, "replay", err)
			if err != nil {
				mismatch = err
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, ms(took))
			routed += res.Successes
			if first == nil {
				first = res
			} else if err := sameReplay(res, first); err != nil {
				mismatch = err
			}
		}
		return lat, routed
	}

	if !o.trace {
		before := readRuntime()
		lat, routed := jobs("measure", seconds(o.seconds))
		rep.phaseRuntime(before, readRuntime(), len(lat)*replayEvents)
		rep.timingLine("measure replay job", lat)
		var total float64
		for _, l := range lat {
			total += l / 1000
		}
		rep.set("p50_ms", lat.median())
		rep.set("ops_per_s", float64(routed)/total)
		rep.printf("replay: %d jobs, %d routed of %d events each, %.0f routed payments per second",
			len(lat), first.Successes, first.Events, float64(routed)/total)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
		rep.check("replays identical across repetitions", mismatch)
		par2, err := in.job(o.seed, 2)
		if err == nil {
			err = sameReplay(par2, first)
		}
		rep.check("parallelism-2 replay matches", err)
		return rep, nil
	}

	before := readRuntime()
	ref, _ := jobs("reference", seconds(o.seconds/3))
	rep.phaseRuntime(before, readRuntime(), len(ref)*replayEvents)
	rep.timingLine("reference replay job", ref)
	// Traced jobs split a job into its layers: the sampler build, the
	// same number of draws through a fresh scratch (building the rows the
	// replay will find cached), then the replay itself, which is then
	// routing plus cached draws.
	tr := newTracer()
	start := time.Now()
	var last *traffic2.Result
	var tracedJobs timing
	for i := 0; i == 0 || time.Since(start) < seconds(o.seconds*2/3); i++ {
		root := tr.begin("replay.job", -1, i)
		id := tr.begin("traffic.sampler_build", root, i)
		sampler, err := traffic.NewSampler(in.g, replayDist, in.rates)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("traffic.sample", root, i)
		sc := sampler.NewScratch()
		rng := rand.New(rand.NewSource(o.seed))
		for e := 0; e < replayEvents; e++ {
			if s := sampler.SampleSender(rng, sc); s >= 0 {
				sampler.SampleReceiver(rng, sc, s)
			}
		}
		tr.end(id)
		id = tr.begin("traffic2.replay", root, i)
		res, err := traffic2.Replay(in.g, replayConfig(sampler, o.seed, 1))
		tr.end(id)
		tr.end(root)
		tracedJobs = append(tracedJobs, ms(time.Duration(tr.spans[root].end-tr.spans[root].start)))
		rep.op("traced", "replay", err)
		if err != nil {
			return nil, err
		}
		if err := sameReplay(res, first); err != nil {
			mismatch = err
		}
		last = res
	}
	ls := tr.layers()
	build1 := ls["traffic.sampler_build"].selfMeanMs()
	sample := ls["traffic.sample"].selfMeanMs()
	route := ls["traffic2.replay"].selfMeanMs()
	rep.set("traffic.sampler_build_ms", build1)
	rep.set("traffic.sample_us", sample*1000/replayEvents)
	rep.set("traffic2.route_us", route*1000/replayEvents)
	rep.set("traffic2.success_share", float64(last.Successes)/float64(last.Events))
	if last.Successes > 0 {
		rep.set("traffic2.retry_share", float64(last.Retried)/float64(last.Successes))
	}
	rep.set("traffic2.depleted_arcs", float64(last.DepletedArcs))
	rep.traceSummary(ref, tracedJobs, build1+sample+route)
	rep.check("replays identical across repetitions", mismatch)
	return rep, nil
}
