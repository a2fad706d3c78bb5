package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rrr"
	"rrr/internal/core"
	"rrr/internal/dataset"
	"rrr/internal/delta"
	"rrr/internal/service"
	"rrr/internal/wal"
	"rrr/internal/watch"
)

// serve-mutate settings: an open loop of reads over primed keys beside an
// open loop of small mutation batches, on a durable server.
const (
	serveReadsPerKey = 4  // scheduled reads of each key between two writes to its dataset
	serveWriteRate   = 12 // mutation batches per second
	servePrepBatches = 12 // WAL batches per dataset past the snapshot at boot
	serveBootReps    = 5  // boots per run; setup_s is the median
	serveReplayEvery = time.Second
)

// serveTails fixes the percentile of each tail metric (see coldPlan.tails)
// for a run's 300 writes and answers and 1500 reads, of which about 30
// wait on a recompute.
var serveTails = map[string]float64{"solve_tail_ms": 95, "read_tail_us": 99, "write_tail_ms": 95}

// mutDataset is one mutable dataset with its primed keys and the state of
// its mutation cycle: append a row every tuple dominates
// (still exact), append a row just inside the best tuple (repairable: it
// crosses into the top-k pools), delete that row again (stale: a pool
// member left), delete the dominated row (still exact, after the pools
// are rebuilt), then append and delete the dominated row until the cycle
// ends (still exact). The data returns to its start every cycle and never
// rescales.
type mutDataset struct {
	name, kind string
	n, d       int
	ks         []int
	cycle      int // batches per cycle, even and at least 6
	phase      int // extra batches before the first cycle, to stagger datasets
	dominated  []float64
	near       []float64
	step       int
	domID      int
	nearID     int

	// ready is closed when the dataset's latest batch has been answered
	// (at readyAt) and the cycle advanced.
	ready   chan struct{}
	readyAt time.Time
	twin    *twinState
}

// serveDatasets are twelve independent 2-D and twelve bn 3-D datasets,
// each with one primed key, k alternating between 10 and 40 so both kinds
// get both. Many small datasets average each run over many draws of the
// data.
func serveDatasets() []*mutDataset {
	closed := make(chan struct{})
	close(closed)
	var out []*mutDataset
	for i := range 12 {
		ks := []int{[]int{10, 40}[i%2]}
		out = append(out,
			&mutDataset{name: fmt.Sprintf("ind2-%d", i), kind: "independent", n: 1000, d: 2, ks: ks, cycle: 6, phase: i, ready: closed},
			&mutDataset{name: fmt.Sprintf("bn3-%d", i), kind: "bn", n: 1000, d: 3, ks: ks, cycle: 18, phase: i, ready: closed})
	}
	return out
}

// shapeRows derives the cycle's two rows from the generated table: the
// worst value of every column (inside the bounds, dominated by every
// tuple) and the best tuple under equal weights moved 1% towards it.
func (m *mutDataset) shapeRows(t *dataset.Table) error {
	mins, maxs, err := t.Bounds()
	if err != nil {
		return err
	}
	worst := make([]float64, t.Dims())
	for j, a := range t.Attrs {
		worst[j] = mins[j]
		if !a.HigherBetter {
			worst[j] = maxs[j]
		}
	}
	best, bestScore := 0, -1.0
	for i, row := range t.Rows {
		s := 0.0
		for j, v := range row {
			if maxs[j] > mins[j] {
				s += math.Abs(v-worst[j]) / (maxs[j] - mins[j])
			}
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	m.dominated = worst
	m.near = make([]float64, t.Dims())
	for j, v := range t.Rows[best] {
		m.near[j] = v + 0.01*(worst[j]-v)
	}
	return nil
}

// nextBatch is the batch for the current step of the cycle.
func (m *mutDataset) nextBatch() delta.Batch {
	switch step := m.step % m.cycle; {
	case step == 1:
		return delta.Batch{Append: [][]float64{slices.Clone(m.near)}}
	case step == 2:
		return delta.Batch{Delete: []int{m.nearID}}
	case step%2 == 0:
		return delta.Batch{Append: [][]float64{slices.Clone(m.dominated)}}
	default:
		return delta.Batch{Delete: []int{m.domID}}
	}
}

// advance records a committed batch's assigned IDs and moves the cycle on.
func (m *mutDataset) advance(res mutation) error {
	switch step := m.step % m.cycle; {
	case step == 1 || (step%2 == 0 && step != 2):
		if len(res.Tuples) != 1 || res.Tuples[0].Status != "appended" {
			return fmt.Errorf("%s: append reported %+v", m.name, res.Tuples)
		}
		if step == 1 {
			m.nearID = res.Tuples[0].ID
		} else {
			m.domID = res.Tuples[0].ID
		}
	default:
		if len(res.Tuples) != 1 || res.Tuples[0].Status != "deleted" {
			return fmt.Errorf("%s: delete reported %+v", m.name, res.Tuples)
		}
	}
	m.step++
	return nil
}

// primedKey is one read key with its watcher and its connection.
type primedKey struct {
	ds   *mutDataset
	k    int
	path string
	w    *watcher
}

// plannedRead is one read of the open-loop schedule.
type plannedRead struct {
	due time.Time
	key int
}

// readPlan is the fixed read schedule. Each dataset is written once every
// len(sets)/serveWriteRate seconds; between two of its writes each of its
// keys is read serveReadsPerKey times, evenly spaced, starting after the
// first write. A scheduled read therefore never lands in the recompute of
// a batch written just before it: the reads that wait on maintenance are
// the follow-ups, a fixed number per run, not however many scheduled reads
// a seed's recompute times happen to overlap.
func readPlan(start, end time.Time, sets []*mutDataset, keysOf map[*mutDataset][]int) []plannedRead {
	var plan []plannedRead
	writes := schedule{start: start, interval: time.Second / serveWriteRate}
	gap := time.Duration(len(sets)) * writes.interval / (serveReadsPerKey + 1)
	for j := 0; writes.due(j).Before(end); j++ {
		for _, key := range keysOf[sets[j%len(sets)]] {
			for m := 1; m <= serveReadsPerKey; m++ {
				if due := writes.due(j).Add(time.Duration(m) * gap); due.Before(end) {
					plan = append(plan, plannedRead{due: due, key: key})
				}
			}
		}
	}
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].due.Before(plan[b].due) })
	return plan
}

// followUp is a read of a written dataset's key, due when the write's
// reply arrived: a client reading its own write once it is acknowledged.
type followUp struct {
	res *readResult
	due time.Time
}

// readResult is one read of the timed phase, filled by its pipe's
// receiver.
type readResult struct {
	key    int
	sample openLoopSample
	err    error
	cached bool
	ids    []int
	// entry is the dataset's snapshot when the read was sent and afterGen
	// its generation when the reply arrived (traced runs only).
	entry    *service.Entry
	afterGen int64
}

// writeResult is one mutation of the timed phase, filled by its pipe's
// receiver.
type writeResult struct {
	ds     *mutDataset
	batch  delta.Batch
	sample openLoopSample
	err    error
	gen    int64
}

func runServeMutate(cfg *runConfig) (*outcome, error) {
	// The WAL is written on every commit but never fsynced (rrrd -fsync
	// never; rrrd's default is always). An fsync's latency is the disk's
	// number, not the program's: on shared storage one burst of another
	// tenant's I/O moved a run's median commit from 0.9 to 2.5 ms while its
	// reads moved 12%, which no bound on the program can absorb.
	fsync := wal.SyncNever
	sets := serveDatasets()
	bootBatches := 0
	for i := range sets {
		bootBatches += servePrepBatches + sets[i].phase%sets[i].cycle
	}
	o := newOutcome(map[string]any{
		"datasets":         "12 independent 2-D n=1000 (6-batch cycle) and 12 bn 3-D n=1000 (18-batch cycle), one key each, k 10 or 40",
		"reads_per_key":    serveReadsPerKey,
		"tail_percentiles": serveTails,
		"write_rate_per_s": serveWriteRate,
		"watchers":         len(sets),
		"wal_batches_boot": bootBatches,
		"boots":            serveBootReps,
		"fsync":            fsync.String(),
		"loop":             "open, one connection per read key and per written dataset",
		"senders":          2,
	})
	base := filepath.Join(cfg.dir, fmt.Sprintf("serve-seed%d", cfg.seed))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	prepared := filepath.Join(base, "prepared")
	if err := prepareDataDir(cfg, prepared, fsync, sets); err != nil {
		return nil, fmt.Errorf("preparing the data dir: %w", err)
	}

	// Boot several times from copies of the prepared dir; keep the last.
	var (
		setups, replays []float64
		r               *rig
		keys            []*primedKey
		replayed        int
	)
	for rep := range serveBootReps {
		if r != nil {
			stopWatchers(keys)
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(base, fmt.Sprintf("boot%d", rep))
		if err := copyDir(prepared, dir); err != nil {
			return nil, err
		}
		bootSets := serveDatasets()
		for i := range bootSets {
			*bootSets[i] = *sets[i]
		}
		runtime.GC() // as in runCold: each boot starts from a collected heap
		t0 := time.Now()
		var err error
		r, err = startRig(rigConfig{delta: true, watch: true, dataDir: dir, fsync: fsync})
		if err != nil {
			return nil, err
		}
		keys, err = primeAndWarm(r, bootSets)
		if err != nil {
			r.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		replays = append(replays, ms(r.recoverDur))
		replayed = r.recovery.ReplayedBatches
		if rep == serveBootReps-1 {
			sets = bootSets
		}
	}
	defer r.close()
	defer stopWatchers(keys)

	var (
		rec *recorder
		lay *layers
		tw  *twin
	)
	if cfg.traced {
		rec, lay = newRecorder(), newLayers()
		lay.add("wal.replay_ms", median(replays))
		o.metrics["wal.replayed_batches"] = float64(replayed)
		var err error
		if tw, err = newTwin(filepath.Join(base, "twin"), fsync, rec, lay); err != nil {
			return nil, err
		}
		defer tw.close()
	}
	before, err := r.stats()
	if err != nil {
		return nil, err
	}
	// Every dataset's snapshot as the timed phase starts: the check
	// rebuilds each later generation from it.
	startEntries := map[*mutDataset]*service.Entry{}
	for _, ds := range sets {
		if startEntries[ds], err = r.svc.Registry().Get(ds.name); err != nil {
			return nil, err
		}
	}

	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	traceFrom := start.Add(time.Duration(cfg.seconds / 3 * float64(time.Second)))

	// One pipe per read key and per written dataset, each with room for
	// every request the run can send on it: a read key's scheduled reads
	// plus a follow-up after every write to its dataset.
	addr := strings.TrimPrefix(r.base, "http://")
	nWrites := int(cfg.seconds*serveWriteRate) + 1
	perKey := make([]int, len(keys))
	keysOf := map[*mutDataset][]int{}
	for ki, key := range keys {
		perKey[ki] = nWrites/len(sets) + 1
		keysOf[key.ds] = append(keysOf[key.ds], ki)
	}
	plan := readPlan(start, end, sets, keysOf)
	for _, pr := range plan {
		perKey[pr.key]++
	}
	readPipes := make([]*pipe, len(keys))
	writePipes := make([]*pipe, len(sets))
	for i := range keys {
		if readPipes[i], err = dialPipe(addr, perKey[i]); err != nil {
			return nil, err
		}
	}
	for i := range sets {
		if writePipes[i], err = dialPipe(addr, nWrites/len(sets)+1); err != nil {
			return nil, err
		}
	}
	reads := make([]readResult, len(plan))
	writes := make([]writeResult, nWrites)
	// follows[j] are the follow-up reads of write j, queued by the write's
	// receiver and sent by the read sender.
	follows := make([][]*readResult, nWrites)
	followQ := make(chan followUp, nWrites*len(keys))
	goroutines := runtime.NumGoroutine()
	sendRead := func(res *readResult, due time.Time) {
		key := keys[res.key]
		if cfg.traced {
			res.entry, _ = r.svc.Registry().Get(key.ds.name)
		}
		sent := time.Now()
		readPipes[res.key].send(rawGet(key.path), func(status int, body []byte, at time.Time, err error) {
			res.sample = openLoopSample{Due: due, Sent: sent, Done: at.Add(cfg.inject)}
			var ans answer
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &ans)
			} else if err == nil {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			res.err, res.ids, res.cached = err, ans.IDs, ans.Cached
			if err == nil && cfg.traced {
				after, _ := r.svc.Registry().Get(key.ds.name)
				res.afterGen = after.Gen
			}
		})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // read sender: the schedule, and each follow-up once queued
		defer wg.Done()
		queue := followQ
		for i := 0; i < len(plan) || queue != nil; {
			var due <-chan time.Time
			if i < len(plan) {
				due = time.After(time.Until(plan[i].due))
			}
			select {
			case f, ok := <-queue:
				if !ok {
					queue = nil
					continue
				}
				sendRead(f.res, f.due)
			case <-due:
				reads[i].key = plan[i].key
				sendRead(&reads[i], plan[i].due)
				i++
			}
		}
	}()
	go func() { // write sender
		defer wg.Done()
		// Once every write is answered, no follow-up can be queued.
		defer close(followQ)
		defer func() {
			for _, p := range writePipes {
				p.close()
			}
		}()
		s := schedule{start: start, interval: time.Second / serveWriteRate}
		for j := range writes {
			due := s.due(j)
			if !due.Before(end) {
				writes = writes[:j]
				return
			}
			time.Sleep(time.Until(due))
			di := j % len(sets)
			ds := sets[di]
			// The next batch needs the IDs the previous one assigned.
			<-ds.ready
			b := ds.nextBatch()
			traced := cfg.traced && !due.Before(traceFrom)
			if traced && ds.twin == nil {
				// The dataset has no batch in flight, so its twin starts
				// exactly where the served write path stands.
				if err := tw.add(r, ds); err != nil {
					writes[j] = writeResult{ds: ds, err: fmt.Errorf("starting the twin of %s: %w", ds.name, err)}
					writes = writes[:j+1]
					return
				}
			}
			res := &writes[j]
			res.ds, res.batch = ds, b
			ready := make(chan struct{})
			ds.ready = ready
			blocked := ds.readyAt
			sent := time.Now()
			path, body, err := mutationRequest(ds.name, b)
			if err != nil {
				res.err = err
				close(ready)
				continue
			}
			goroutines = max(goroutines, runtime.NumGoroutine())
			writePipes[di].send(rawPost(path, body), func(status int, body []byte, at time.Time, err error) {
				defer close(ready)
				ds.readyAt = at
				res.sample = openLoopSample{Due: due, Sent: sent, Done: at.Add(cfg.inject), PrevDone: blocked}
				var m mutation
				if err == nil && status == http.StatusOK {
					err = json.Unmarshal(body, &m)
				} else if err == nil {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err == nil {
					err = ds.advance(m)
				}
				if err != nil {
					res.err = fmt.Errorf("write %s %+v: %w", ds.name, b, err)
					return
				}
				res.gen = m.Generation
				for _, ki := range keysOf[ds] {
					fr := &readResult{key: ki}
					follows[j] = append(follows[j], fr)
					followQ <- followUp{res: fr, due: at}
				}
				if traced {
					span := rec.add("write", 0, -(j + 1), sent, at)
					if err := tw.replay(span, -(j + 1), ds, b, m.Generation); err != nil {
						res.err = fmt.Errorf("twin replay of %s batch %d: %w", ds.name, j, err)
					}
				}
			})
		}
	}()
	wg.Wait()
	for _, p := range readPipes {
		p.close()
	}
	elapsed := time.Since(start)

	// Let the last batches' recomputes land before reading the counters.
	var writeLog []writeResult
	for _, w := range writes {
		if w.err == nil {
			writeLog = append(writeLog, w)
		}
	}
	settleWatchers(keys, writeLog, 30*time.Second)
	after, err := r.stats()
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()

	var readOK, writeOK []openLoopSample
	allReads := make([]*readResult, 0, len(reads)+len(writes))
	for i := range reads {
		allReads = append(allReads, &reads[i])
	}
	for _, fs := range follows {
		allReads = append(allReads, fs...)
	}
	for _, rd := range allReads {
		o.attempted++
		if rd.err != nil {
			o.fail("read %s: %v", keys[rd.key].path, rd.err)
			continue
		}
		readOK = append(readOK, rd.sample)
	}
	for _, w := range writes {
		o.attempted++
		if w.err != nil {
			o.fail("%v", w.err)
			continue
		}
		writeOK = append(writeOK, w.sample)
	}
	readLat, late := openLoopStats(readOK, time.Microsecond)
	writeLat, writeLate := openLoopStats(writeOK, time.Millisecond)
	solves := freshness(keys, writeLog)
	m := o.metrics
	m["setup_s"] = median(setups)
	m["read_p50_us"] = percentile(readLat, 50)
	o.setTail("read_tail_us", readLat, serveTails["read_tail_us"])
	m["write_p50_ms"] = percentile(writeLat, 50)
	o.setTail("write_tail_ms", writeLat, serveTails["write_tail_ms"])
	m["solve_p50_ms"] = percentile(solves, 50)
	o.setTail("solve_tail_ms", solves, serveTails["solve_tail_ms"])
	m["solves_per_s"] = float64(len(solves)) / elapsed.Seconds()
	m["live_heap_mb"] = heap
	o.counts["reads"], o.counts["follow_up_reads"] = len(reads), len(allReads)-len(reads)
	o.counts["writes"], o.counts["fresh_answers"] = len(writes), len(solves)

	// Correctness, outside the timed window: the watch streams saw every
	// generation, and the answer each watcher holds at every generation
	// keeps its bound on that generation's data.
	checkWatchers(keys, writeLog, o)
	answers, err := generationAnswers(r, keys, startEntries, writeLog, o)
	if err != nil {
		return nil, err
	}
	var sizes []float64
	for _, a := range answers {
		o.attempted++
		sizes = append(sizes, float64(len(a.ids)))
	}
	var tally regretTally
	checkAnswers(answers, cfg.seed, estimateSamples, o, &tally)
	m["answer_size_mean"] = mean(sizes)
	m["rank_regret_ratio_mean"] = tally.mean()
	m["quality.rank_regret_ratio_max"] = tally.worst

	if cfg.traced {
		// Replay a sample of the traced reads — at most one per key every
		// serveReplayEvery, and only reads no batch raced — against the
		// snapshot each was served from.
		rp := newReplayer(rec, lay, r, cfg.seed)
		lastKept := map[int]time.Time{}
		kept := 0
		for i, rd := range reads {
			if rd.err != nil || rd.sample.Due.Before(traceFrom) || rd.entry == nil || rd.afterGen != rd.entry.Gen ||
				rd.sample.Done.Sub(lastKept[rd.key]) < serveReplayEvery {
				continue
			}
			lastKept[rd.key] = rd.sample.Done
			kept++
			o.attempted++
			key := keys[rd.key]
			// Only a read that solved has a solve to attribute; a cache hit
			// is a "read" span.
			name := "read"
			if !rd.cached {
				name = "request"
			}
			span := rec.add(name, 0, i+1, rd.sample.Sent, rd.sample.Done)
			for _, bad := range rp.read(span, i+1, key.ds.name, rd.entry.Data, key.k, rrr.AlgoAuto.Resolve(key.ds.d), rd.ids, kept%4 == 1) {
				o.fail("%s", bad)
			}
		}
		o.counts["replayed_reads"] = kept
		lateAll := sortedCopy(append(slices.Clone(late), scale(writeLate, 1000)...))
		m["loadgen.late_ms"] = tail(lateAll).Value / 1000
		m["goroutines_max"] = float64(goroutines)
		m["trace.overhead_share"] = readOverhead(reads, traceFrom)
		cacheLayers(m, before, after)
		m["delta.still_exact"] = float64(after.Delta.Revalidated - before.Delta.Revalidated)
		m["delta.repaired"] = float64(after.Delta.Repaired - before.Delta.Repaired)
		m["delta.stale"] = float64(after.Delta.Recomputed - before.Delta.Recomputed)
		if classified := m["delta.still_exact"] + m["delta.repaired"] + m["delta.stale"]; classified > 0 {
			m["delta.kept_ratio"] = (m["delta.still_exact"] + m["delta.repaired"]) / classified
		}
		if n := after.Persist.WALAppends - before.Persist.WALAppends; n > 0 {
			m["wal.bytes_per_batch"] = float64(after.Persist.WALBytes-before.Persist.WALBytes) / float64(n)
		}
		m["watch.events"] = float64(after.Watch.Events - before.Watch.Events)
		m["watch.dropped"] = float64(after.Watch.Dropped - before.Watch.Dropped)
		if err := finishTrace(cfg, rec, lay, m); err != nil {
			return nil, err
		}
	}
	m["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	return o, nil
}

// prepareDataDir builds the data dir every boot starts from: the datasets
// registered and snapshotted, then at least servePrepBatches mutation
// batches per dataset in the WAL past that snapshot.
func prepareDataDir(cfg *runConfig, dir string, fsync wal.SyncPolicy, sets []*mutDataset) error {
	r, err := startRig(rigConfig{delta: true, watch: true, dataDir: dir, fsync: fsync})
	if err != nil {
		return err
	}
	defer r.close()
	for i, ds := range sets {
		t, err := dataset.ByKind(ds.kind, ds.n, ds.d, cfg.seed*1000+int64(i))
		if err != nil {
			return err
		}
		if err := ds.shapeRows(t); err != nil {
			return err
		}
		if err := r.registerCSV(ds.name, t); err != nil {
			return err
		}
	}
	if err := r.svc.Persist(); err != nil {
		return err
	}
	// Datasets of one kind get one more batch each (mod the cycle), so they
	// stand at different steps of their cycles and the expensive steps
	// spread evenly over the run instead of arriving together.
	for _, ds := range sets {
		for range servePrepBatches + ds.phase%ds.cycle {
			res, err := r.mutate(ds.name, ds.nextBatch())
			if err != nil {
				return err
			}
			if err := ds.advance(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// primeAndWarm is the serving half of a boot: every primed key read once
// (a cold solve), a watcher opened on each, and one warm-up mutation per
// dataset, which builds the delta pools the first mutation after boot
// builds lazily.
func primeAndWarm(r *rig, sets []*mutDataset) ([]*primedKey, error) {
	var keys []*primedKey
	for _, ds := range sets {
		for _, k := range ds.ks {
			key := &primedKey{ds: ds, k: k, path: representativePath(ds.name, k, "")}
			if _, err := r.representative(key.path); err != nil {
				stopWatchers(keys)
				return nil, err
			}
			w, err := r.watch(ds.name, k)
			if err != nil {
				stopWatchers(keys)
				return nil, err
			}
			key.w = w
			keys = append(keys, key)
		}
	}
	for _, ds := range sets {
		res, err := r.mutate(ds.name, ds.nextBatch())
		if err == nil {
			err = ds.advance(res)
		}
		if err != nil {
			stopWatchers(keys)
			return nil, err
		}
	}
	return keys, nil
}

func stopWatchers(keys []*primedKey) {
	for _, k := range keys {
		if k.w != nil {
			k.w.stop()
			k.w = nil
		}
	}
}

// settleWatchers waits until every watcher has an event for the last
// generation written to its dataset, or the timeout passes.
func settleWatchers(keys []*primedKey, writes []writeResult, timeout time.Duration) {
	last := map[*mutDataset]int64{}
	for _, w := range writes {
		last[w.ds] = w.gen
	}
	deadline := time.Now().Add(timeout)
	for _, key := range keys {
		for time.Now().Before(deadline) {
			evs := key.w.snapshot()
			if len(evs) > 0 && evs[len(evs)-1].Generation >= last[key.ds] {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// checkWatchers fails every generation a watcher never saw and every
// terminal event it got.
func checkWatchers(keys []*primedKey, writes []writeResult, o *outcome) {
	for _, key := range keys {
		seen := map[int64]bool{}
		for _, ev := range key.w.snapshot() {
			if ev.Type == watch.TypeClosing {
				o.fail("watch %s k=%d closed: %+v", key.ds.name, key.k, ev)
			}
			seen[ev.Generation] = true
		}
		for _, w := range writes {
			if w.ds == key.ds && !seen[w.gen] {
				o.fail("watch %s k=%d missed generation %d", key.ds.name, key.k, w.gen)
			}
		}
	}
}

// generationAnswers is, for every watched key and every generation the
// timed phase wrote, the answer its watcher holds — the IDs of a repaired
// or recomputed event, or for a heartbeat the answer of the generation
// before — with that generation's data. The data is rebuilt by applying
// the run's batches, in order, to a delta.Log started from each dataset's
// snapshot at the start of the timed phase, the same log the registry
// applies them with; the rebuilt last generation must equal the served
// one. Each key is read once more, and the read must return its watcher's
// last answer.
func generationAnswers(r *rig, keys []*primedKey, start map[*mutDataset]*service.Entry, writes []writeResult, o *outcome) ([]servedAnswer, error) {
	data := map[*mutDataset]map[int64]*core.Dataset{}
	logs := map[*mutDataset]*delta.Log{}
	for ds, e := range start {
		lg, err := delta.NewLog(e.Table, e.Gen)
		if err != nil {
			return nil, err
		}
		logs[ds], data[ds] = lg, map[int64]*core.Dataset{}
	}
	for _, w := range writes {
		ch, err := logs[w.ds].Apply(w.batch, func() int64 { return w.gen }, nil)
		if err != nil {
			return nil, fmt.Errorf("rebuilding %s generation %d: %w", w.ds.name, w.gen, err)
		}
		data[w.ds][w.gen] = ch.After
	}
	for ds, lg := range logs {
		t, _, gen := lg.Snapshot()
		e, err := r.svc.Registry().Get(ds.name)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if e.Gen != gen || !slices.EqualFunc(e.Table.Rows, t.Rows, slices.Equal[[]float64]) {
			o.fail("%s: rebuilt generation %d differs from the served generation %d", ds.name, gen, e.Gen)
		}
	}

	var out []servedAnswer
	for _, key := range keys {
		evs := key.w.snapshot()
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].Generation < evs[b].Generation })
		held := map[int64][]int{}
		for _, ev := range evs {
			switch {
			case ev.Type == watch.TypeGeneration:
				if prev, ok := held[ev.PrevGen]; ok {
					held[ev.Generation] = prev
				}
			case len(ev.IDs) > 0:
				held[ev.Generation] = ev.IDs
			}
		}
		var lastIDs []int
		for _, w := range writes {
			ids, ok := held[w.gen]
			if w.ds != key.ds || !ok {
				continue // a missed generation is failed by checkWatchers
			}
			out = append(out, servedAnswer{name: fmt.Sprintf("%s@%d", key.ds.name, w.gen), data: data[w.ds][w.gen], k: key.k,
				algo: rrr.AlgoAuto.Resolve(key.ds.d), ids: ids})
			lastIDs = ids
		}
		o.attempted++
		ans, err := r.representative(key.path)
		switch {
		case err != nil:
			o.fail("final read %s: %v", key.path, err)
		case lastIDs != nil && !slices.Equal(ans.IDs, lastIDs):
			o.fail("final read %s: served %v, its watcher holds %v", key.path, ans.IDs, lastIDs)
		}
	}
	return out, nil
}

// freshness is, for every watcher and every batch written to its dataset,
// the time from the batch's due time until the watcher received that
// generation's answer — a heartbeat when the old answer was proven still
// exact, the repaired or recomputed answer otherwise — in milliseconds,
// ascending. It is the serving-side counterpart of a cold solve: the wait
// until a client holds the answer to a question the cache did not hold.
func freshness(keys []*primedKey, writes []writeResult) []float64 {
	due := map[*mutDataset]map[int64]time.Time{}
	for _, w := range writes {
		if due[w.ds] == nil {
			due[w.ds] = map[int64]time.Time{}
		}
		due[w.ds][w.gen] = w.sample.Due
	}
	var out []float64
	for _, key := range keys {
		for _, ev := range key.w.snapshot() {
			if t, ok := due[key.ds][ev.Generation]; ok {
				out = append(out, ms(ev.At.Sub(t)))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// readOverhead compares, key by key, the median read latency of the traced
// part of the run against the untraced part before it.
func readOverhead(reads []readResult, traceFrom time.Time) float64 {
	ov := newOverhead()
	for _, rd := range reads {
		if rd.err == nil {
			ov.observe(rd.key, !rd.sample.Due.Before(traceFrom), rd.sample.latency())
		}
	}
	return ov.share()
}

func scale(values []float64, f float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v * f
	}
	return out
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// twin is a second write path assembled from the layers' public APIs — a
// delta log and maintainer per dataset, a scratch WAL store with the same
// fsync policy, and a watch hub with the same subscriber count — that
// every traced batch is replayed through, so the served state is never
// touched twice. Each dataset joins the twin at its first traced batch.
type twin struct {
	rec   *recorder
	lay   *layers
	store *wal.Store
	hub   *watch.Hub
	mu    sync.Mutex
	subs  []*watch.Subscription
}

// twinState is one dataset's part of the twin. Only the goroutine
// handling the dataset's batches touches it.
type twinState struct {
	log    *delta.Log
	maint  *delta.Maintainer
	topics []watch.Topic
	fresh  bool // the maintainer must build its pools on the next batch
}

func newTwin(dir string, fsync wal.SyncPolicy, rec *recorder, lay *layers) (*twin, error) {
	st, err := wal.Open(dir, wal.Options{Sync: fsync})
	if err != nil {
		return nil, err
	}
	return &twin{rec: rec, lay: lay, store: st, hub: watch.NewHub(watch.Options{Buffer: 64, MaxSubscribers: 1024})}, nil
}

// add starts the twin of ds from the dataset's served state, which must
// not change while add runs.
func (t *twin) add(r *rig, ds *mutDataset) error {
	e, err := r.svc.Registry().Get(ds.name)
	if err != nil {
		return err
	}
	lg, err := delta.NewLog(e.Table, e.Gen)
	if err != nil {
		return err
	}
	st := &twinState{log: lg, maint: delta.NewMaintainer(), fresh: true}
	for _, k := range ds.ks {
		topic := watch.Topic{Dataset: ds.name, K: k, Algo: string(rrr.AlgoAuto.Resolve(ds.d))}
		sub, err := t.hub.Subscribe(topic, func(watch.Event) error { return nil })
		if err != nil {
			return err
		}
		sub.Start(nil)
		t.mu.Lock()
		t.subs = append(t.subs, sub)
		t.mu.Unlock()
		st.topics = append(st.topics, topic)
	}
	ds.twin = st
	return nil
}

// replay runs one batch through the twin: apply with a WAL append as the
// commit hook, classify the primed keys, publish one event per topic.
func (t *twin) replay(parent, reqID int, ds *mutDataset, b delta.Batch, gen int64) error {
	st := ds.twin
	root := t.rec.start("twin.write", parent, reqID)
	defer t.rec.end(root)
	apply := t.rec.start("delta.apply", root, reqID)
	ch, err := st.log.Apply(b, func() int64 { return gen }, func(ch *delta.Change) error {
		var aerr error
		d := t.rec.time("wal.append", apply, reqID, func(int) {
			_, aerr = t.store.Append(wal.Record{Dataset: ds.name, PrevGen: ch.PrevGen, Gen: ch.Gen, Append: b.Append, Delete: b.Delete})
		})
		t.lay.add("wal.append_us", us(d))
		return aerr
	})
	t.rec.end(apply)
	if err != nil {
		return err
	}

	var outcomes map[int]delta.Outcome
	d := t.rec.time("delta.classify", root, reqID, func(int) {
		outcomes, err = st.maint.Apply(context.Background(), ch, ds.ks)
	})
	if err != nil {
		return err
	}
	if st.fresh {
		t.lay.add("delta.pool_build_ms", ms(d))
	}
	st.fresh = false
	for _, out := range outcomes {
		if out.Class == delta.Stale {
			st.fresh = true
		}
	}
	d = t.rec.time("watch.publish", root, reqID, func(int) {
		for _, topic := range st.topics {
			t.hub.Publish(topic, watch.Event{Type: watch.TypeGeneration, Gen: ch.Gen, PrevGen: ch.PrevGen, Data: []byte(`{}`)})
		}
	})
	t.lay.add("watch.publish_us", us(d))
	return nil
}

// close ends the twin's subscriptions, waits for their drainers and closes
// its store.
func (t *twin) close() {
	t.hub.Close(watch.Event{Type: watch.TypeClosing, Data: []byte(`{}`)})
	t.mu.Lock()
	subs := t.subs
	t.mu.Unlock()
	for _, s := range subs {
		<-s.Done()
	}
	t.store.Close()
}
