package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"rrr"
	"rrr/internal/algo"
	"rrr/internal/core"
	"rrr/internal/cover"
	"rrr/internal/kset"
	"rrr/internal/service"
	"rrr/internal/shard"
	"rrr/internal/sweep"
	"rrr/internal/topk"
)

// layers collects per-layer samples across a traced run; each metric is
// reported as the median of its samples, or as a sum where noted. It is
// safe for concurrent use.
type layers struct {
	mu      sync.Mutex
	samples map[string][]float64
	counts  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *layers) count(name string, v float64) {
	l.mu.Lock()
	l.counts[name] += v
	l.mu.Unlock()
}

// fill writes every per-layer metric into m: medians of the samples,
// totals of the counts, and zero for a layer the workload never reached.
func (l *layers) fill(m map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range perLayer {
		if _, set := m[d.name]; set {
			continue
		}
		switch {
		case len(l.samples[d.name]) > 0:
			m[d.name] = median(l.samples[d.name])
		default:
			m[d.name] = l.counts[d.name]
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayer re-runs a served request through the layers' public functions,
// each call in its own span, and checks that every path that must
// reproduce the served answer does.
type replayer struct {
	rec    *recorder
	lay    *layers
	rig    *rig
	rng    *rand.Rand
	procs  int
	solver map[rrr.Algorithm]*rrr.Solver
	shards map[rrr.Algorithm]*rrr.Solver
}

func newReplayer(rec *recorder, lay *layers, r *rig, seed int64) *replayer {
	return &replayer{rec: rec, lay: lay, rig: r, rng: rand.New(rand.NewSource(seed)), procs: runtime.GOMAXPROCS(0),
		solver: map[rrr.Algorithm]*rrr.Solver{}, shards: map[rrr.Algorithm]*rrr.Solver{}}
}

// solverFor builds the solver the service uses for an algorithm: the same
// options rrrd passes, seed 1, unsharded — or sharded over every core.
func (p *replayer) solverFor(a rrr.Algorithm, sharded bool) *rrr.Solver {
	cache := p.solver
	opts := []rrr.Option{rrr.WithBatchWorkers(p.procs), rrr.WithSeed(1), rrr.WithAlgorithm(a)}
	if sharded {
		cache = p.shards
		opts = append(opts, rrr.WithShards(p.procs), rrr.WithShardWorkers(p.procs))
	}
	s, ok := cache[a]
	if !ok {
		s = rrr.New(opts...)
		cache[a] = s
	}
	return s
}

// read replays one representative request served as ids. It returns a
// description of each mismatch between the served answer and a replay that
// must reproduce it.
func (p *replayer) read(reqSpan, reqID int, name string, data *core.Dataset, k int, a rrr.Algorithm, served []int, full bool) []string {
	ctx := context.Background()
	var bad []string
	check := func(layer string, ids []int, err error) {
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s k=%d %s replay: %v", name, k, layer, err))
			return
		}
		got := slices.Clone(ids)
		sort.Ints(got)
		if !slices.Equal(got, served) {
			bad = append(bad, fmt.Sprintf("%s k=%d: served %v, %s replay gives %v", name, k, served, layer, got))
		}
	}
	root := p.rec.start("replay", reqSpan, reqID)
	defer p.rec.end(root)

	var res rrr.Result
	var err error
	d := p.rec.time("solver.solve", root, reqID, func(int) {
		err = p.solverFor(a, false).SolveInto(ctx, data, k, &res)
	})
	check("solver", res.IDs, err)
	p.lay.add("solver.solve_ms", ms(d))
	p.decompose(root, reqID, data, k, a, check)
	p.httpOverhead(name, k, a)
	if !full {
		return bad
	}

	d = p.rec.time("prune", root, reqID, func(int) {
		pl, perr := shard.NewPlan(data, 1, shard.Contiguous)
		if perr != nil {
			err = perr
			return
		}
		var ids []int
		ids, _, err = shard.Candidates(ctx, pl, k, shard.Dominance, shard.Options{})
		p.lay.add("prune.kept_ratio", float64(len(ids))/float64(data.N()))
	})
	if err != nil {
		bad = append(bad, fmt.Sprintf("%s k=%d prune replay: %v", name, k, err))
	}
	p.lay.add("prune.ms", ms(d))

	d = p.rec.time("solver.sharded", root, reqID, func(int) {
		err = p.solverFor(a, true).SolveInto(ctx, data, k, &res)
	})
	if err != nil {
		bad = append(bad, fmt.Sprintf("%s k=%d sharded replay: %v", name, k, err))
	}
	p.lay.add("solver.sharded_ms", ms(d))

	if a == rrr.Algo2DRRR {
		var events int
		p.rec.time("sweep.events", root, reqID, func(int) { events, err = sweep.Sweep(data, nil) })
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s k=%d sweep replay: %v", name, k, err))
		}
		p.lay.add("sweep.events", float64(events))
	}

	const calls = 16
	w := make([]float64, data.Dims())
	d = p.rec.time("topk", root, reqID, func(int) {
		for range calls {
			for j := range w {
				w[j] = p.rng.Float64() + 1e-9
			}
			topk.TopK(data, core.LinearFunc{W: w}, k)
		}
	})
	p.lay.add("topk.us", us(d)/calls)
	return bad
}

// decompose runs the algorithm the service dispatched to, layer by layer,
// under one "decompose" span: the sweep and the cover for 2DRRR, the
// recursion for MDRC, the sampler and the hitting set for MDRRR.
func (p *replayer) decompose(root, reqID int, data *core.Dataset, k int, a rrr.Algorithm, check func(string, []int, error)) {
	ctx := context.Background()
	p.rec.time("decompose", root, reqID, func(parent int) {
		switch a {
		case rrr.Algo2DRRR:
			var ranges map[int]sweep.Range
			var err error
			d := p.rec.time("sweep.find_ranges", parent, reqID, func(int) { ranges, err = sweep.FindRanges(ctx, data, k) })
			if err != nil {
				check("sweep", nil, err)
				return
			}
			p.lay.add("sweep.find_ranges_ms", ms(d))
			p.lay.add("sweep.ranges", float64(len(ranges)))
			var r *algo.Result
			d = p.rec.time("cover", parent, reqID, func(int) { r, err = algo.TwoDRRRFromRanges(ranges, algo.TwoDOptions{}) })
			p.lay.add("cover.ms", ms(d))
			p.lay.add("cover.intervals", float64(len(ranges)))
			if err != nil {
				check("sweep+cover", nil, err)
				return
			}
			check("sweep+cover", r.IDs, nil)
		case rrr.AlgoMDRC:
			var r *algo.Result
			var err error
			d := p.rec.time("mdrc", parent, reqID, func(int) { r, err = algo.MDRC(ctx, data, k, algo.MDRCOptions{}) })
			if err != nil {
				check("mdrc", nil, err)
				return
			}
			p.lay.add("mdrc.ms", ms(d))
			p.lay.add("mdrc.nodes", float64(r.Stats.Nodes))
			// A solve that reached the node cap or the minimum width
			// resolved those rectangles by the center-function fallback.
			if r.Stats.Fallbacks > 0 {
				p.lay.count("mdrc.fallback_solves", 1)
			}
			check("mdrc", r.IDs, nil)
		case rrr.AlgoMDRRR:
			var col *kset.Collection
			var st kset.SampleStats
			var err error
			d := p.rec.time("kset.sample", parent, reqID, func(int) { col, st, err = kset.Sample(ctx, data, k, kset.SampleOptions{Seed: 1}) })
			if err != nil {
				check("kset", nil, err)
				return
			}
			p.lay.add("kset.sample_ms", ms(d))
			p.lay.add("kset.draws", float64(st.Draws))
			p.lay.add("kset.ksets", float64(st.Distinct))
			p.lay.add("kset.yield", float64(st.Distinct)/float64(max(st.Draws, 1)))
			var ids []int
			p.rec.time("hitting_set", parent, reqID, func(int) { ids, err = cover.GreedyHittingSet(col.Sets()) })
			check("kset+hitting set", ids, err)
		}
	})
}

// httpOverhead times the warm key through the whole handler and through
// the service call beneath it; the difference is what HTTP routing,
// parsing and encoding add to a cache hit.
func (p *replayer) httpOverhead(name string, k int, a rrr.Algorithm) {
	const reps = 64
	path := representativePath(name, k, string(a))
	req := httptest.NewRequest("GET", path, nil)
	handler := make([]float64, 0, reps)
	for range reps {
		w := httptest.NewRecorder()
		t0 := time.Now()
		p.rig.handler.ServeHTTP(w, req)
		handler = append(handler, us(time.Since(t0)))
	}
	svc := make([]float64, 0, reps)
	var out service.Representative
	for range reps {
		t0 := time.Now()
		if err := p.rig.svc.RepresentativeInto(context.Background(), name, k, string(a), &out); err != nil {
			return
		}
		svc = append(svc, us(time.Since(t0)))
	}
	p.lay.add("http.overhead_us", median(handler)-median(svc))
}
