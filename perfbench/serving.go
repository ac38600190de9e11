package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/lightning-creation-games/lcg/internal/core"
	"github.com/lightning-creation-games/lcg/internal/graph"
	"github.com/lightning-creation-games/lcg/internal/growth"
	"github.com/lightning-creation-games/lcg/internal/serve"
	"github.com/lightning-creation-games/lcg/internal/txdist"
)

// substrateN is the serving substrate size, the n=2000 Barabási–Albert
// graph the repository's serving benchmarks use.
const substrateN = 2000

// substrateSeed fixes the generated substrates: the run's --seed draws
// the request streams. Substrates of different seeds differ in how much
// pricing work a quote costs (evaluations per quote moved by ~6% between
// seeds 1 and 2), which would read as noise between runs.
const substrateSeed = 1

func coreParams() core.Params {
	return core.Params{OnChainCost: 1, OppCostRate: 0.05, FAvg: 0.5, FeePerHop: 0.5, OwnRate: 1}
}

// serveConfig spells out every default the session would otherwise fill
// in, so the replica below prices with exactly the server's settings.
// One worker keeps substrate folds on the writer's goroutine: the
// machine has two cores and each workload already runs up to two client
// goroutines.
func serveConfig() serve.Config {
	return serve.Config{
		Params:         coreParams(),
		RemoteBalance:  1,
		Dist:           txdist.ModifiedZipf{S: 1},
		Workers:        1,
		TickBudget:     6,
		TickLock:       1,
		TickCandidates: 16,
	}
}

func substrate() *graph.Graph {
	return graph.BarabasiAlbert(substrateN, 2, 10, rand.New(rand.NewSource(substrateSeed)))
}

// newServeSession builds the serving session: substrate, all-pairs
// planes, then the session's first demand and λ̂ refresh. It reports the
// all-pairs build time separately.
func newServeSession() (*serve.Session, time.Duration, error) {
	g := substrate()
	t := time.Now()
	gs, err := core.NewGrowSession(g, coreParams(), 0, 1)
	if err != nil {
		return nil, 0, err
	}
	allPairs := time.Since(t)
	s, err := serve.NewSession(gs, serveConfig())
	return s, allPairs, err
}

// quoteGen draws the seeded /v1/price-join mix: candidate lists of 64
// distinct peers, one in ten of 16 and one in ten of 256; budget
// uniform in [2, 12]; lock 1.
type quoteGen struct {
	rng  *rand.Rand
	perm []graph.NodeID
}

func newQuoteGen(seed int64) *quoteGen {
	perm := make([]graph.NodeID, substrateN)
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	return &quoteGen{rng: rand.New(rand.NewSource(seed)), perm: perm}
}

func (g *quoteGen) next() serve.PriceQuery {
	k := 64
	switch x := g.rng.Float64(); {
	case x < 0.1:
		k = 16
	case x < 0.2:
		k = 256
	}
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(len(g.perm)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
	return serve.PriceQuery{
		Budget:     2 + 10*g.rng.Float64(),
		Lock:       1,
		Candidates: append([]graph.NodeID(nil), g.perm[:k]...),
	}
}

func priceBody(q serve.PriceQuery) []byte {
	cands := make([]int, len(q.Candidates))
	for i, c := range q.Candidates {
		cands[i] = int(c)
	}
	b, _ := json.Marshal(map[string]any{"budget": q.Budget, "lock": q.Lock, "candidates": cands})
	return b
}

// call sends one request through the handler in-process (no socket),
// inside a span named name, and reports its status, body and handler
// time.
func call(h http.Handler, path string, body []byte, tr *tracer, name string, req int) (int, []byte, time.Duration) {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin(name, -1, req)
	t := time.Now()
	h.ServeHTTP(rec, r)
	d := time.Since(t)
	tr.end(id)
	return rec.Code, rec.Body.Bytes(), d
}

// reply is the subset of a JSON response the checks read.
type reply struct {
	Epoch     uint64  `json:"epoch"`
	Objective float64 `json:"objective"`
	Committed int     `json:"committed"`
}

// parseReply accepts a 2xx reply that carries an epoch.
func parseReply(status int, body []byte) (reply, error) {
	var r reply
	if status/100 != 2 {
		return r, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	if r.Epoch == 0 {
		return r, fmt.Errorf("reply carries no epoch: %s", bytes.TrimSpace(body))
	}
	return r, nil
}

// replica is a core.GrowSession kept in step with a served session by
// applying the same mutations through the core, growth and graph layers
// directly — the shadow that decomposes each served operation into its
// layers, and the oracle sampled quotes are re-priced against.
type replica struct {
	gs       *core.GrowSession
	cfg      serve.Config
	departed []bool
	epoch    uint64
}

func newReplica() (*replica, error) {
	gs, err := core.NewGrowSession(substrate(), coreParams(), 0, 1)
	if err != nil {
		return nil, err
	}
	r := &replica{gs: gs, cfg: serveConfig(), departed: make([]bool, gs.NumNodes()), epoch: 1}
	gs.Graph().PrimeCSR()
	return r, r.refresh(nil, -1, 0)
}

func (r *replica) alive() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(r.departed))
	for v, d := range r.departed {
		if !d {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

func (r *replica) mask() []bool {
	for _, d := range r.departed {
		if d {
			return r.departed
		}
	}
	return nil
}

// price runs the read path layer by layer: join probabilities, the
// evaluator, then Algorithm 1's greedy.
func (r *replica) price(candidates []graph.NodeID, budget, lock float64, tr *tracer, parent, req int) (core.Result, error) {
	id := tr.begin("growth.join_probs", parent, req)
	pu := growth.JoinProbs(r.gs.Graph(), graph.InvalidNode, r.cfg.Dist, r.mask())
	tr.end(id)
	id = tr.begin("core.evaluator", parent, req)
	ev, err := r.gs.Evaluator(pu, r.cfg.Params)
	tr.end(id)
	if err != nil {
		return core.Result{}, err
	}
	id = tr.begin("core.greedy", parent, req)
	res, err := core.Greedy(ev, core.GreedyConfig{
		Budget:       budget,
		Lock:         lock,
		Candidates:   candidates,
		Model:        core.RevenueFixedRate,
		UtilityModel: core.RevenueFixedRate,
	})
	tr.end(id)
	return res, err
}

// apply performs one served write on the replica and seals the epoch,
// recording a span per layer call under parent.
func (r *replica) apply(w write, tr *tracer, parent, req int) error {
	var err error
	switch w.kind {
	case writeTick:
		err = r.tick(w.arrivals, w.seed, tr, parent, req)
	case writeClose:
		err = r.close(w.node, tr, parent, req)
	case writeRefresh:
		err = r.refresh(tr, parent, req)
	}
	if err != nil {
		return err
	}
	r.gs.Graph().PrimeCSR()
	r.epoch++
	return nil
}

// tick mirrors Session.Tick: each arrival prices a preferential sample
// of alive peers against its predecessors, then commits. The pricing is
// one span; its inner layers are the read path's and are not split out
// here, so read-path layer times come from reads alone.
func (r *replica) tick(arrivals int, seed int64, tr *tracer, parent, req int) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < arrivals; i++ {
		id := tr.begin("core.tick_price", parent, req)
		cands := growth.SampleCandidates(rng, r.gs.Graph(), r.alive(), r.cfg.TickCandidates, true)
		res, err := r.price(cands, r.cfg.TickBudget, r.cfg.TickLock, nil, -1, req)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.commit", parent, req)
		_, err = r.gs.Commit(res.Strategy)
		tr.end(id)
		if err != nil {
			return err
		}
		r.departed = append(r.departed, false)
	}
	return nil
}

// close mirrors Session.Close: every channel of v closes, then the
// decremental fold repairs the planes.
func (r *replica) close(v graph.NodeID, tr *tracer, parent, req int) error {
	id := tr.begin("graph.fold_close", parent, req)
	_, err := r.gs.CloseNode(v)
	rows := 0
	if err == nil {
		rows = r.gs.FoldClose()
	}
	tr.end(id)
	if err != nil {
		return err
	}
	tr.add("graph.fold_close_rows", float64(rows))
	r.departed[v] = true
	return nil
}

// refresh mirrors the session's demand and λ̂ re-quote over the alive
// nodes (at session open and on /v1/refresh).
func (r *replica) refresh(tr *tracer, parent, req int) error {
	id := tr.begin("growth.refresh", parent, req)
	r.gs.SetDemand(growth.BuildDemand(r.gs.Graph(), r.cfg.Dist, r.mask()))
	_, err := r.gs.RefreshRates(r.alive())
	tr.end(id)
	return err
}

// sameObjective reports whether two objectives agree bit for bit.
func sameObjective(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
