package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rrr"
	"rrr/internal/dataset"
	"rrr/internal/service"
)

// setupReps is how many times a cold workload sets up its server; setup_s
// is the median.
const setupReps = 25

// warmPerSolve is how many warm re-reads follow each cold solve.
const warmPerSolve = 16

// coldDataset is one dataset a cold workload uploads.
type coldDataset struct {
	name, kind string
	n, d       int
}

// coldKey is one request of a cold workload, on one of its cycle's
// datasets.
type coldKey struct {
	ds   int
	k    int
	algo rrr.Algorithm
}

// coldCycle is one round of a cold workload: fresh datasets are uploaded,
// then every key is solved cold.
type coldCycle struct {
	datasets []coldDataset
	keys     []coldKey
}

// coldPlan is a closed loop of cycles. The cycle shapes and k values do
// not depend on the seed (only the data does), so every run and every
// commit walks the same sequence; a run stops at a cycle boundary.
type coldPlan struct {
	// setupCycles is how many cycles' datasets the set-up uploads: the
	// catalog the server starts with.
	setupCycles int
	// period is how many cycles make the full mix; runs end on a period
	// boundary.
	period int
	cycle  func(c int) coldCycle
	params map[string]any
	// tails fixes the percentile of each tail metric: the highest ladder
	// percentile with at least ten samples beyond it at the count a run
	// on this plan makes, and one whose rank falls inside the slow keys'
	// cluster, not on the edge between two clusters.
	tails map[string]float64
}

// cold2DPlan: each cycle uploads three independent and one anticorrelated
// 2-D dataset and solves four keys on each, interleaved 3:1. The k values
// walk 1..200 in a fixed stride order, so any prefix of the run sees the
// same spread of k.
func cold2DPlan() coldPlan {
	const n, kMax, stride = 1000, 200, 77
	return coldPlan{
		setupCycles: 3,
		period:      1,
		params: map[string]any{
			"n": n, "dims": 2, "algo": "2drrr", "cycle": "upload 3 independent + 1 anticorrelated, 4 keys on each, interleaved 3:1",
			"k_range": []int{1, kMax}, "clients": 1, "loop": "closed", "warm_reads_per_solve": warmPerSolve,
		},
		// About 300 cold solves, 5000 warm reads and 70 uploads a run.
		tails: map[string]float64{"solve_tail_ms": 95, "read_tail_us": 95, "write_tail_ms": 75},
		cycle: func(c int) coldCycle {
			cy := coldCycle{datasets: []coldDataset{
				{fmt.Sprintf("c%d-ind-a", c), "independent", n, 2},
				{fmt.Sprintf("c%d-ind-b", c), "independent", n, 2},
				{fmt.Sprintf("c%d-ind-c", c), "independent", n, 2},
				{fmt.Sprintf("c%d-anti", c), "anticorrelated", n, 2},
			}}
			for q := range 16 {
				k := 1 + ((c*16+q)*stride)%kMax
				cy.keys = append(cy.keys, coldKey{ds: q % 4, k: k, algo: rrr.Algo2DRRR})
			}
			return cy
		},
	}
}

// coldMDPlan: each cycle uploads dot 4-D, bn 3-D and independent 4-D data
// (n=1000), then solves 6 MDRC keys at k ≥ 20, 3 MDRC keys at small k and
// 3 MDRRR keys on bn. It also uploads a small anticorrelated 3-D dataset
// and solves it at k=2, which runs MDRC into its node cap: about a second,
// every cycle. The capped keys are one solve in thirteen, more than the
// one in twenty beyond p95, so the tail falls among them rather than on
// the edge of the wide MDRRR and small-k spread below them.
func coldMDPlan() coldPlan {
	const n, antiN = 1000, 100
	const dot, bn, ind, anti = 0, 1, 2, 3
	key := func(ds, k int, a rrr.Algorithm) coldKey { return coldKey{ds: ds, k: k, algo: a} }
	mdrc, mdrrr := rrr.AlgoMDRC, rrr.AlgoMDRRR
	keys := []coldKey{
		key(dot, 40, mdrc), key(bn, 15, mdrrr), key(ind, 40, mdrc), key(dot, 12, mdrc),
		key(bn, 40, mdrc), key(anti, 2, mdrc), key(ind, 8, mdrc), key(bn, 20, mdrrr),
		key(dot, 80, mdrc), key(bn, 10, mdrc), key(ind, 20, mdrc), key(bn, 25, mdrrr),
		key(bn, 160, mdrc),
	}
	return coldPlan{
		setupCycles: 3,
		period:      1,
		params: map[string]any{
			"n": n, "anticorrelated_n": antiN,
			"cycle":   "upload dot4, bn3, ind4 (n=1000) and anti3 (n=100); 6 mdrc at k>=20, 3 mdrc at small k, 3 mdrrr on bn3, anti3 mdrc at k=2 (node cap)",
			"clients": 1, "loop": "closed", "warm_reads_per_solve": warmPerSolve,
		},
		// About 260 cold solves (20 of them capped), 4000 warm reads and
		// 80 uploads (a quarter of them the small anti3) a run.
		tails: map[string]float64{"solve_tail_ms": 95, "read_tail_us": 95, "write_tail_ms": 75},
		cycle: func(c int) coldCycle {
			return coldCycle{datasets: []coldDataset{
				{fmt.Sprintf("c%d-dot4", c), "dot", n, 4},
				{fmt.Sprintf("c%d-bn3", c), "bn", n, 3},
				{fmt.Sprintf("c%d-ind4", c), "independent", n, 4},
				{fmt.Sprintf("c%d-anti3", c), "anticorrelated", antiN, 3},
			}, keys: keys}
		},
	}
}

func runCold2D(cfg *runConfig) (*outcome, error) { return runCold(cfg, cold2DPlan()) }
func runColdMD(cfg *runConfig) (*outcome, error) { return runCold(cfg, coldMDPlan()) }

// genTable builds one cycle dataset from the run's seed.
func genTable(seed int64, c, i int, ds coldDataset) (*dataset.Table, error) {
	return dataset.ByKind(ds.kind, ds.n, ds.d, seed*1_000_000+int64(c)*16+int64(i))
}

// solvedKey is one cold answer kept for the warm re-reads.
type solvedKey struct {
	path string
	ids  []int
}

// runCold sets the server up several times, then runs cycles until the
// time is spent: each cycle uploads its datasets (the writes), solves its
// keys cold, and follows each solve with warm re-reads of the keys of this
// cycle and the one before. Between cycles, outside the timed window, the
// cycle's answers are checked and the datasets of the cycle before are
// removed, so the server's state stays the same size however long the run.
func runCold(cfg *runConfig, plan coldPlan) (*outcome, error) {
	plan.params["tail_percentiles"] = plan.tails
	o := newOutcome(plan.params)
	tablesOf := func(c int) ([]*dataset.Table, error) {
		var out []*dataset.Table
		for i, ds := range plan.cycle(c).datasets {
			t, err := genTable(cfg.seed, c, i, ds)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}

	// Set-up: a fresh server, then the catalog through POST /v1/datasets.
	var catalog [][]*dataset.Table
	for c := range plan.setupCycles {
		ts, err := tablesOf(c)
		if err != nil {
			return nil, err
		}
		catalog = append(catalog, ts)
	}
	var setups []float64
	var r *rig
	for range setupReps {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		// Every set-up starts from a collected heap, so no set-up pays
		// for the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = startRig(rigConfig{}); err != nil {
			return nil, err
		}
		for c, ts := range catalog {
			for i, t := range ts {
				if err := r.registerCSV(plan.cycle(c).datasets[i].name, t); err != nil {
					r.close()
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	catalog = nil

	var (
		rec *recorder
		lay *layers
		rp  *replayer
	)
	if cfg.traced {
		rec, lay = newRecorder(), newLayers()
		rp = newReplayer(rec, lay, r, cfg.seed)
	}
	before, err := r.stats()
	if err != nil {
		return nil, err
	}
	var (
		lat, warm, writes, sizes []float64
		solved, prevSolved       []solvedKey
		tally                    regretTally
		overhead                 = newOverhead()
		goroutines               = runtime.NumGoroutine()
		measured                 time.Duration
		reqID                    int
	)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for c := 0; measured < budget || c%plan.period != 0; c++ {
		cy := plan.cycle(c)
		var tables []*dataset.Table
		if c >= plan.setupCycles {
			if tables, err = tablesOf(c); err != nil {
				return nil, err
			}
		}
		// A traced run replays every request from the first cycle past a
		// third of the time on; the requests before are its untraced
		// reference for the tracing overhead.
		tracing := cfg.traced && measured >= budget/3
		var answers []servedAnswer
		cycleStart := time.Now()
		for i, t := range tables {
			w0 := time.Now()
			time.Sleep(cfg.inject)
			err := r.registerCSV(cy.datasets[i].name, t)
			o.attempted++
			if err != nil {
				return nil, err
			}
			writes = append(writes, ms(time.Since(w0)))
		}
		entries := make([]*service.Entry, len(cy.datasets))
		for i, ds := range cy.datasets {
			if entries[i], err = r.svc.Registry().Get(ds.name); err != nil {
				return nil, err
			}
		}
		for q, key := range cy.keys {
			ds := cy.datasets[key.ds]
			path := representativePath(ds.name, key.k, string(key.algo))
			t0 := time.Now()
			time.Sleep(cfg.inject)
			ans, err := r.representative(path)
			t1 := time.Now()
			o.attempted++
			if err != nil {
				o.fail("%s: %v", path, err)
				continue
			}
			if ans.Cached {
				o.fail("%s was answered from cache; every cold request must solve", path)
			}
			lat = append(lat, ms(t1.Sub(t0)))
			sizes = append(sizes, float64(len(ans.IDs)))
			answers = append(answers, servedAnswer{name: ds.name, data: entries[key.ds].Data, k: key.k, algo: key.algo, ids: ans.IDs})
			o.answers[path] = ans.IDs
			o.latencyMS[path] = ms(t1.Sub(t0))
			solved = append(solved, solvedKey{path: path, ids: ans.IDs})
			reqID++
			if cfg.traced {
				overhead.observe(q, tracing, t1.Sub(t0))
			}
			if tracing {
				reqSpan := rec.add("request", 0, reqID, t0, t1)
				for _, bad := range rp.read(reqSpan, reqID, ds.name, entries[key.ds].Data, key.k, key.algo, ans.IDs, true) {
					o.fail("%s", bad)
				}
			}

			// Warm re-reads of this cycle's and the last cycle's keys.
			pool := len(prevSolved) + len(solved)
			for j := range warmPerSolve {
				sk := pickSolved(prevSolved, solved, (reqID*warmPerSolve+j)%pool)
				t0 := time.Now()
				time.Sleep(cfg.inject)
				ans, err := r.representative(sk.path)
				d := time.Since(t0)
				o.attempted++
				switch {
				case err != nil:
					o.fail("warm %s: %v", sk.path, err)
				case !slices.Equal(ans.IDs, sk.ids):
					o.fail("warm %s: served %v, first served %v", sk.path, ans.IDs, sk.ids)
				default:
					warm = append(warm, us(d))
				}
			}
			goroutines = max(goroutines, runtime.NumGoroutine())
		}
		measured += time.Since(cycleStart)

		// Between cycles, untimed: check this cycle's answers and drop
		// the cycle before it.
		checkAnswers(answers, cfg.seed, estimateSamples, o, &tally)
		if c > 0 {
			for _, ds := range plan.cycle(c - 1).datasets {
				o.attempted++
				if err := r.call(http.MethodDelete, "/v1/datasets/"+ds.name, nil, http.StatusOK, nil); err != nil {
					o.fail("removing %s: %v", ds.name, err)
				}
			}
		}
		prevSolved, solved = solved, nil
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no cold request succeeded")
	}
	after, err := r.stats()
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()

	m := o.metrics
	m["setup_s"] = median(setups)
	m["solve_p50_ms"] = percentile(sortedCopy(lat), 50)
	o.setTail("solve_tail_ms", sortedCopy(lat), plan.tails["solve_tail_ms"])
	m["solves_per_s"] = float64(len(lat)) / measured.Seconds()
	m["read_p50_us"] = percentile(sortedCopy(warm), 50)
	o.setTail("read_tail_us", sortedCopy(warm), plan.tails["read_tail_us"])
	m["write_p50_ms"] = percentile(sortedCopy(writes), 50)
	o.setTail("write_tail_ms", sortedCopy(writes), plan.tails["write_tail_ms"])
	m["answer_size_mean"] = mean(sizes)
	m["live_heap_mb"] = heap
	m["rank_regret_ratio_mean"] = tally.mean()
	m["quality.rank_regret_ratio_max"] = tally.worst
	m["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.counts["cold_requests"] = len(lat)
	o.counts["warm_requests"] = len(warm)
	o.counts["uploads"] = len(writes)

	if cfg.traced {
		m["loadgen.late_ms"] = 0
		m["goroutines_max"] = float64(goroutines)
		m["trace.overhead_share"] = overhead.share()
		cacheLayers(m, before, after)
		return o, finishTrace(cfg, rec, lay, m)
	}
	return o, nil
}

// pickSolved indexes the concatenation of two key lists.
func pickSolved(prev, cur []solvedKey, i int) solvedKey {
	if i < len(prev) {
		return prev[i]
	}
	return cur[i-len(prev)]
}

// liveHeapMiB is the heap in use after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cacheLayers fills the cache and runtime metrics from two /v1/stats
// snapshots around the timed phase.
func cacheLayers(m map[string]float64, before, after service.Snapshot) {
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	m["cache.hits"] = hits
	m["cache.misses"] = misses
	m["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	m["cache.waits"] = float64(after.Phases["cache_wait"].Count - before.Phases["cache_wait"].Count)
	m["cache.computations"] = float64(after.Computations - before.Computations)
	m["gc.pause_ms"] = (after.Runtime.GCPauseSecondsTotal - before.Runtime.GCPauseSecondsTotal) * 1000
}

// finishTrace writes the spans out and completes the per-layer metrics,
// deriving the self time of the twin's log apply (without its WAL append)
// and the requests' unattributed share from the span tree.
func finishTrace(cfg *runConfig, rec *recorder, lay *layers, m map[string]float64) error {
	spans := rec.snapshot()
	m["trace.spans"] = float64(len(spans))
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "delta.apply" {
			lay.add("delta.apply_us", us(self[s.ID]))
		}
	}
	if shares := unattributedShares(spans); len(shares) > 0 {
		m["solver.unattributed_share"] = median(shares)
	}
	lay.fill(m)
	path := filepath.Join(cfg.dir, "results", fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))
	return rec.write(path)
}

// overhead estimates what tracing costs the requests: per request shape,
// the median latency of the traced requests against the untraced ones,
// combined as the median of the per-shape ratios, minus one.
type overhead struct {
	after, plain map[int][]float64
}

func newOverhead() *overhead {
	return &overhead{after: map[int][]float64{}, plain: map[int][]float64{}}
}

func (o *overhead) observe(shape int, traced bool, d time.Duration) {
	if traced {
		o.after[shape] = append(o.after[shape], float64(d))
	} else {
		o.plain[shape] = append(o.plain[shape], float64(d))
	}
}

func (o *overhead) share() float64 {
	var ratios []float64
	for shape, a := range o.after {
		if p := o.plain[shape]; len(p) > 0 && median(p) > 0 {
			ratios = append(ratios, median(a)/median(p))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}
