package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rrr"
	"rrr/internal/trace"
)

// Key identifies one precomputation: a representative of dataset Dataset
// at rank target K by algorithm Algo. Algo is the *resolved* algorithm
// (never "auto"), so "auto" and its resolution share one cache slot. Gen
// is the registry entry's registration generation: a re-registered dataset
// gets fresh keys, so results computed against removed data — including
// computations in flight across the removal — are unreachable rather than
// stale.
//
// K > 0 is a primal query. K < 0 encodes the dual size query
// MinimalKForSize(-K): the dual's answer is deterministic per (dataset,
// gen, size, algorithm) exactly like a primal solve, so it caches and
// coalesces under the same machinery with a disjoint key range.
//
// Shards is the shard plan's fingerprint (shard.Plan.Fingerprint) when the
// service solves through the map-reduce engine, empty otherwise. The
// deterministic algorithms produce identical results for any plan, but the
// sampled MDRRR path does not, and work counters differ for all of them —
// so results computed under different shard configurations never share a
// slot.
type Key struct {
	Dataset string
	Gen     int64
	K       int
	Algo    string
	Shards  string
}

// flight is the shared state of one batch computation claiming several
// keys at once. refs counts the waiters currently attached to *unfilled*
// slots of the flight (guarded by Cache.mu): when it reaches zero while
// unfilled slots remain, nobody is waiting for anything the batch still
// has to produce, and the flight's context is canceled. A waiter on an
// already-filled slot holds no reference — its result exists regardless
// of the flight's fate.
type flight struct {
	cancel   context.CancelFunc
	refs     int
	unfilled int
}

// computation is one cache slot. The computation runs on its own goroutine
// under a context detached from any single request: requests — the one
// that created the flight and any that joined it — are *waiters*. A waiter
// whose own context dies leaves the flight; when the last waiter leaves,
// the computation's context is canceled, so abandoned work stops burning
// CPU instead of running to completion for nobody. A slot whose
// computation failed (including by cancellation) is evicted so later
// requests retry instead of caching the error forever.
//
// A slot created by DoBatch belongs to a flight shared with its sibling
// keys; fl is nil for single-key computations.
type computation struct {
	done   chan struct{}
	cancel context.CancelFunc
	fl     *flight

	// waiters is guarded by Cache.mu: the number of requests currently
	// blocked on (or about to block on) this slot.
	waiters int
	// filled is guarded by Cache.mu: a flight slot whose result has been
	// published (done is closed at the same moment).
	filled bool

	// Written by the computing goroutine before close(done), read-only
	// afterwards.
	ids     []int
	stats   ResultStats
	elapsed time.Duration
	err     error

	// encoded is the pre-marshaled HTTP response body for this result,
	// attached lazily by the serving layer on the first cache hit so every
	// later hit writes bytes without re-encoding. It travels with the slot
	// through Rekey — the body carries no generation, so a still-exact
	// carry-over keeps it valid.
	encoded atomic.Pointer[[]byte]
}

// ResultStats carries the solver's work counters through the cache.
type ResultStats struct {
	KSets int
	Nodes int
	// BestK is the achieved k of a dual (negative-K) computation; zero
	// for primal results.
	BestK int
	// Shards and Candidates describe the map-reduce plan a sharded solve
	// ran through (zero for unsharded computations).
	Shards     int
	Candidates int
}

// Cache is a keyed precomputation cache with singleflight semantics:
// concurrent requests for the same key share exactly one underlying
// computation, and completed computations are served from memory until
// Invalidate. DoBatch extends the claim to a *set* of keys: a batch
// registers every key it will produce before computing, so a single-key
// request arriving while the batch is in flight joins that computation
// instead of starting its own. The cache deliberately has no size bound —
// entries are a few ints per (dataset, k, algorithm) triple — but
// InvalidateDataset keeps it in step with dataset removal.
type Cache struct {
	mu      sync.Mutex
	slots   map[Key]*computation
	metrics *Metrics
	// sem bounds the number of concurrently *running* computations —
	// admission control, so a burst of distinct keys (say, a client
	// sweeping k) queues solves instead of launching them all at once and
	// exhausting CPU and memory. Followers of an in-flight key wait on
	// the slot, not the semaphore, so sharing is never throttled. A batch
	// holds one admission slot for all its keys; its internal worker pool
	// bounds the fan-out.
	sem chan struct{}
}

// NewCache returns an empty cache reporting into metrics (may be nil).
// maxConcurrent bounds simultaneously running computations; values <= 0
// default to GOMAXPROCS (each solver already parallelizes internally, so
// more concurrent solves than cores only adds memory pressure).
func NewCache(metrics *Metrics, maxConcurrent int) *Cache {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	return &Cache{
		slots:   make(map[Key]*computation),
		metrics: metrics,
		sem:     make(chan struct{}, maxConcurrent),
	}
}

// CachedResult is what Do returns: the representative IDs plus provenance
// (whether this request hit the cache and how long the underlying
// computation took).
type CachedResult struct {
	IDs     []int
	Stats   ResultStats
	Elapsed time.Duration
	Cached  bool
}

// addWaiterLocked attaches a request to a slot. Callers hold c.mu.
func (c *Cache) addWaiterLocked(slot *computation) {
	slot.waiters++
	if slot.fl != nil && !slot.filled {
		slot.fl.refs++
	}
}

// leaveLocked detaches a request that gave up before the slot completed.
// It evicts an abandoned slot so later requests start fresh, and reports
// whether the departing waiter was the last interest keeping the
// computation alive — the caller must then cancel outside the lock.
// Callers hold c.mu.
func (c *Cache) leaveLocked(key Key, slot *computation) (cancel context.CancelFunc) {
	slot.waiters--
	if slot.fl != nil {
		if !slot.filled {
			slot.fl.refs--
			if slot.fl.refs == 0 {
				cancel = slot.fl.cancel
			}
		}
		if slot.waiters == 0 && !slot.filled && c.slots[key] == slot {
			// Evict in the same critical section that detects abandonment
			// (see the single-slot case below); the batch goroutine still
			// publishes into the detached slot, harmlessly.
			delete(c.slots, key)
		}
		return cancel
	}
	if slot.waiters == 0 {
		if c.slots[key] == slot {
			// Evict in the same critical section that detects
			// abandonment: a request arriving after this point starts
			// a fresh flight instead of joining a doomed one and
			// inheriting its cancellation error.
			delete(c.slots, key)
		}
		cancel = slot.cancel
	}
	return cancel
}

// Do returns the cached result for key, computing it via compute if absent.
// If another request is already computing the key, Do waits for it and
// shares its result (counted as a hit) — including when the in-flight
// computation is a batch that claimed the key (counted as a coalesced
// join). compute runs on its own goroutine under a context detached from
// ctx, so one client disconnecting never kills a solve other clients are
// waiting on; but when ctx dies and this was the last waiter, the
// computation's context is canceled and the solve stops. compute must
// honor its context for that to interrupt work.
func (c *Cache) Do(ctx context.Context, key Key, compute func(context.Context) ([]int, ResultStats, error)) (CachedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	slot, found := c.slots[key]
	if !found {
		// Detach carries the creating request's trace state onto the
		// computation's context, so solver spans land in that request's
		// trace while the compute stays immune to its cancellation.
		runCtx, cancel := context.WithCancel(trace.Detach(ctx))
		slot = &computation{done: make(chan struct{}), cancel: cancel}
		c.slots[key] = slot
		c.metrics.add(cacheMisses, 1)
		go c.run(key, slot, runCtx, compute)
	} else if slot.fl != nil && !slot.filled {
		// Joining a key a batch claimed but hasn't produced yet: the
		// coalescing the batch engine exists for.
		c.metrics.add(coalescedJoins, 1)
	}
	c.addWaiterLocked(slot)
	c.mu.Unlock()

	rec, parent := trace.FromContext(ctx)
	waitID := rec.Start("cache_wait", parent)
	select {
	case <-slot.done:
	case <-ctx.Done():
		// Prefer a completed result over reporting cancellation when both
		// raced: the work is done, serve it.
		select {
		case <-slot.done:
		default:
			rec.End(waitID)
			c.mu.Lock()
			cancel := c.leaveLocked(key, slot)
			c.mu.Unlock()
			if cancel != nil {
				// Last waiter gone: nobody wants this result anymore.
				cancel()
			}
			return CachedResult{}, fmt.Errorf("service: request for %s on %q (k=%d) abandoned: %w",
				key.Algo, key.Dataset, key.K, ctx.Err())
		}
	}
	rec.End(waitID)
	c.mu.Lock()
	slot.waiters--
	c.mu.Unlock()
	if slot.err != nil {
		// A shared failure is not a hit: nothing was served from cache,
		// the client gets the flight's error.
		return CachedResult{}, slot.err
	}
	if !found {
		// This request created the flight; its result is fresh, not cached.
		return CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: false}, nil
	}
	c.metrics.add(cacheHits, 1)
	return CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: true}, nil
}

// run executes one computation on its own goroutine: admission control,
// metrics, publication, and eviction-on-failure. Panics in compute are
// recovered and published as errors — the goroutine is detached from any
// request, so net/http's per-request recovery cannot catch them.
func (c *Cache) run(key Key, slot *computation, ctx context.Context, compute func(context.Context) ([]int, ResultStats, error)) {
	defer slot.cancel() // release the context's resources on every path
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		// Every waiter left while this computation was still queued
		// behind the admission semaphore; it never started. It never
		// entered the in-flight gauge, but it must show up as canceled or
		// overload cancellations are invisible.
		slot.err = fmt.Errorf("service: computation for %v canceled while queued: %w", key, ctx.Err())
		c.metrics.add(canceled, 1)
		c.evict(key, slot)
		close(slot.done)
		return
	}
	c.metrics.add(inFlight, 1)
	rec, _ := trace.FromContext(ctx)
	tid := rec.TraceID()
	start := time.Now()
	finished := false
	defer func() {
		if !finished {
			// compute panicked: publish an error so waiters unwedge, evict
			// the slot so later requests retry, and swallow the panic —
			// re-panicking on a detached goroutine would kill the process.
			slot.err = fmt.Errorf("service: computation for %v panicked: %v", key, recover())
			slot.elapsed = time.Since(start)
			c.metrics.computeFinished(key.Algo, slot.elapsed, slot.err, tid)
			c.evict(key, slot)
			close(slot.done)
		}
	}()
	slot.ids, slot.stats, slot.err = compute(ctx)
	finished = true
	slot.elapsed = time.Since(start)
	c.metrics.computeFinished(key.Algo, slot.elapsed, slot.err, tid)
	if slot.err != nil && !errors.Is(slot.err, rrr.ErrBudgetExhausted) {
		// Evict before waking waiters: transient failures and
		// cancellations must not poison the key. Budget exhaustion is the
		// exception — it is deterministic for a (dataset, k, algorithm)
		// triple under the daemon's configured budgets, so the typed error
		// is cached until the dataset is removed; evicting it would make
		// every retry of a doomed key burn the full budget again.
		c.evict(key, slot)
	}
	close(slot.done)
}

// Hit returns the completed successful result at key without waiting or
// computing — the allocation-free fast path a request tries before paying
// for a solver clone and a compute closure. A hit here is counted exactly
// as Do would count it; misses (absent, in-flight, or failed slots) are
// not counted because the caller falls through to Do, which does the
// accounting for whatever it finds.
func (c *Cache) Hit(key Key) (CachedResult, bool) {
	c.mu.Lock()
	slot, ok := c.slots[key]
	c.mu.Unlock()
	if !ok {
		return CachedResult{}, false
	}
	select {
	case <-slot.done:
	default:
		return CachedResult{}, false
	}
	if slot.err != nil {
		return CachedResult{}, false
	}
	c.metrics.add(cacheHits, 1)
	return CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: true}, true
}

// EncodedBody returns the pre-marshaled response body attached to the
// key's completed successful slot, counting a cache hit when present. The
// returned bytes are shared — callers must write, never mutate, them.
func (c *Cache) EncodedBody(key Key) ([]byte, bool) {
	c.mu.Lock()
	slot, ok := c.slots[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-slot.done:
	default:
		return nil, false
	}
	if slot.err != nil {
		return nil, false
	}
	body := slot.encoded.Load()
	if body == nil {
		return nil, false
	}
	c.metrics.add(cacheHits, 1)
	return *body, true
}

// SetEncodedBody attaches a pre-marshaled response body to the key's
// completed successful slot so later hits serve bytes without
// re-encoding. The caller must not mutate body afterwards. No-op when the
// slot is absent, in flight, or failed — the body would describe nothing.
func (c *Cache) SetEncodedBody(key Key, body []byte) {
	c.mu.Lock()
	slot, ok := c.slots[key]
	c.mu.Unlock()
	if !ok {
		return
	}
	select {
	case <-slot.done:
	default:
		return
	}
	if slot.err != nil {
		return
	}
	slot.encoded.Store(&body)
}

// BatchFill publishes one key's outcome from inside a DoBatch compute
// function. It must be called exactly once per owned key.
type BatchFill func(key Key, ids []int, stats ResultStats, err error)

// DoBatch resolves a set of keys through one shared computation. Keys
// already cached or in flight are joined exactly as Do joins them; the
// remaining keys are *claimed* — their slots exist, marked in-flight,
// before compute starts — and compute is invoked once, on a detached
// goroutine, with the claimed keys. It must publish every owned key
// exactly once via fill (streaming as results become ready); owned keys
// it fails to publish are failed on its behalf when it returns.
//
// Claiming is what makes batches coalesce: a single-key Do arriving while
// the batch is in flight finds the claimed slot and waits on it instead
// of computing. Waiter accounting spans the key set — the batch caller
// counts as one waiter per owned slot, and the flight's context is
// canceled only when no request is waiting on any *unpublished* slot.
//
// The returned maps hold one entry per distinct input key: a result or
// that key's error (computation failure, or abandonment when ctx died
// first). Like Do, a caller abandoning some keys keeps results it already
// collected.
func (c *Cache) DoBatch(ctx context.Context, keys []Key, compute func(ctx context.Context, owned []Key, fill BatchFill)) (map[Key]CachedResult, map[Key]error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make(map[Key]CachedResult, len(keys))
	errs := make(map[Key]error)

	fl := &flight{}
	runCtx, cancel := context.WithCancel(trace.Detach(ctx))
	fl.cancel = cancel
	var owned []Key
	waiting := make(map[Key]*computation, len(keys))
	joined := make(map[Key]bool, len(keys))
	c.mu.Lock()
	for _, key := range keys {
		if _, dup := waiting[key]; dup {
			continue
		}
		slot, found := c.slots[key]
		if found {
			joined[key] = true
			if slot.fl != nil && !slot.filled {
				c.metrics.add(coalescedJoins, 1)
			}
		} else {
			slot = &computation{done: make(chan struct{}), fl: fl}
			c.slots[key] = slot
			fl.unfilled++
			owned = append(owned, key)
			c.metrics.add(cacheMisses, 1)
		}
		waiting[key] = slot
		c.addWaiterLocked(slot)
	}
	c.mu.Unlock()

	if len(owned) > 0 {
		c.metrics.add(batches, 1)
		c.metrics.add(batchItems, int64(len(owned)))
		// Restrict the fill surface to the claimed slots: a compute that
		// publishes a key it merely joined must be a no-op, not a write
		// into a foreign computation.
		ownedSlots := make(map[Key]*computation, len(owned))
		for _, key := range owned {
			ownedSlots[key] = waiting[key]
		}
		go c.runBatch(fl, runCtx, owned, ownedSlots, compute)
	} else {
		cancel() // nothing claimed; release the unused context
	}

	rec, traceParent := trace.FromContext(ctx)
	waitID := rec.Start("cache_wait", traceParent)
	for key, slot := range waiting {
		select {
		case <-slot.done:
		case <-ctx.Done():
			select {
			case <-slot.done:
			default:
				rec.End(waitID)
				// The request died with keys outstanding: collect any that
				// completed anyway (their results are done work — serving
				// them beats evicting them), leave the rest and report
				// those keys abandoned. Results already collected stay
				// valid.
				var cancels []context.CancelFunc
				c.mu.Lock()
				for k2, s2 := range waiting {
					if _, collected := results[k2]; collected {
						continue
					}
					if _, failed := errs[k2]; failed {
						continue
					}
					select {
					case <-s2.done:
						s2.waiters--
						switch {
						case s2.err != nil:
							errs[k2] = s2.err
						case joined[k2]:
							c.metrics.add(cacheHits, 1)
							results[k2] = CachedResult{IDs: s2.ids, Stats: s2.stats, Elapsed: s2.elapsed, Cached: true}
						default:
							results[k2] = CachedResult{IDs: s2.ids, Stats: s2.stats, Elapsed: s2.elapsed, Cached: false}
						}
					default:
						if cfn := c.leaveLocked(k2, s2); cfn != nil {
							cancels = append(cancels, cfn)
						}
						errs[k2] = fmt.Errorf("service: request for %s on %q (k=%d) abandoned: %w",
							k2.Algo, k2.Dataset, k2.K, ctx.Err())
					}
				}
				c.mu.Unlock()
				for _, cfn := range cancels {
					cfn()
				}
				return results, errs
			}
		}
		c.mu.Lock()
		slot.waiters--
		c.mu.Unlock()
		switch {
		case slot.err != nil:
			errs[key] = slot.err
		case joined[key]:
			c.metrics.add(cacheHits, 1)
			results[key] = CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: true}
		default:
			results[key] = CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: false}
		}
	}
	rec.End(waitID)
	return results, errs
}

// runBatch executes one batch computation on its own goroutine, holding a
// single admission slot for the whole key set. fill publishes per-key
// results as compute produces them, waking that key's waiters immediately;
// whatever compute leaves unpublished (early return, panic) is failed and
// evicted so no waiter wedges.
func (c *Cache) runBatch(fl *flight, ctx context.Context, owned []Key, slots map[Key]*computation, compute func(context.Context, []Key, BatchFill)) {
	defer fl.cancel()
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-ctx.Done():
		// One queued-abandonment event, however many keys it claimed —
		// counting each key's fill as a cancellation too would report one
		// overload event len(owned)+1 times.
		err := fmt.Errorf("service: batch computation canceled while queued: %w", ctx.Err())
		c.metrics.add(canceled, 1)
		for _, key := range owned {
			c.fill(fl, key, slots[key], nil, ResultStats{}, err, 0, false)
		}
		return
	}
	c.metrics.add(inFlight, 1)
	start := time.Now()
	published := make(map[Key]bool, len(owned))
	var mu sync.Mutex // guards published; compute may fill from worker goroutines
	fill := func(key Key, ids []int, stats ResultStats, err error) {
		mu.Lock()
		slot, ok := slots[key]
		if published[key] || !ok {
			mu.Unlock()
			return
		}
		published[key] = true
		mu.Unlock()
		c.fill(fl, key, slot, ids, stats, err, time.Since(start), true)
	}
	finished := false
	defer func() {
		var err error
		if !finished {
			err = fmt.Errorf("service: batch computation panicked: %v", recover())
		} else {
			err = errors.New("service: batch computation ended without publishing this key")
		}
		for _, key := range owned {
			mu.Lock()
			done := published[key]
			published[key] = true
			mu.Unlock()
			if !done {
				c.fill(fl, key, slots[key], nil, ResultStats{}, err, time.Since(start), true)
			}
		}
		rec, _ := trace.FromContext(ctx)
		c.metrics.computeFinished("batch", time.Since(start), nil, rec.TraceID())
	}()
	compute(ctx, owned, fill)
	finished = true
}

// fill publishes one slot's outcome: record, update flight accounting,
// evict failures (budget exhaustion excepted, as in run), close done, and
// cancel the flight when the last interested waiter's key was just
// published while unfilled siblings remain. counted=false skips per-item
// metrics for events already counted at the batch level.
func (c *Cache) fill(fl *flight, key Key, slot *computation, ids []int, stats ResultStats, err error, elapsed time.Duration, counted bool) {
	c.mu.Lock()
	slot.ids, slot.stats, slot.err, slot.elapsed = ids, stats, err, elapsed
	slot.filled = true
	fl.unfilled--
	// Waiters on this slot got what they came for; they no longer keep
	// the rest of the flight alive.
	fl.refs -= slot.waiters
	cancelFlight := fl.refs == 0 && fl.unfilled > 0
	if err != nil && !errors.Is(err, rrr.ErrBudgetExhausted) {
		if c.slots[key] == slot {
			delete(c.slots, key)
		}
	}
	c.mu.Unlock()
	if counted {
		c.metrics.batchItemFinished(err)
	}
	close(slot.done)
	if cancelFlight {
		fl.cancel()
	}
}

// CachedEntry pairs a key with its completed result — the unit the warm
// cache persists and restores.
type CachedEntry struct {
	Key    Key
	Result CachedResult
}

// CompletedEntries returns every completed successful computation with
// its key — the warm-cache export. In-flight slots are excluded (their
// results don't exist yet) and so are cached errors: budget-exhausted
// slots are deliberately kept in memory (see run), but persisting them
// would make a doomed key survive restarts of a possibly re-tuned daemon.
func (c *Cache) CompletedEntries() []CachedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []CachedEntry
	for key, slot := range c.slots {
		select {
		case <-slot.done:
		default:
			continue
		}
		if slot.err != nil {
			continue
		}
		out = append(out, CachedEntry{
			Key:    key,
			Result: CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: true},
		})
	}
	return out
}

// CompletedKeys returns the keys of completed, successful computations
// for the named dataset at the given generation — the cached answers the
// delta maintainer classifies after a mutation. In-flight and failed
// slots are excluded: the former will complete into an unreachable
// generation, the latter have nothing worth carrying forward.
func (c *Cache) CompletedKeys(name string, gen int64) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []Key
	for key, slot := range c.slots {
		if key.Dataset != name || key.Gen != gen {
			continue
		}
		select {
		case <-slot.done:
			if slot.err == nil {
				keys = append(keys, key)
			}
		default:
		}
	}
	return keys
}

// Rekey republishes the completed result at old under the new key — the
// delta maintainer's still-exact path, which carries an answer across a
// generation bump instead of letting the new generation miss. It reports
// false without touching anything when old is missing, unfinished or
// failed, or when new is already occupied (a request may have raced ahead
// and started its own computation; that flight wins).
func (c *Cache) Rekey(old, new Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[old]
	if !ok {
		return false
	}
	select {
	case <-slot.done:
	default:
		return false
	}
	if slot.err != nil {
		return false
	}
	if _, occupied := c.slots[new]; occupied {
		return false
	}
	c.slots[new] = slot
	delete(c.slots, old)
	return true
}

// Put seeds a completed result — the delta maintainer's repair path
// publishing a reduce-phase re-run. It reports false when the key is
// already occupied (an in-flight or completed computation wins).
func (c *Cache) Put(key Key, ids []int, stats ResultStats, elapsed time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, occupied := c.slots[key]; occupied {
		return false
	}
	slot := &computation{done: make(chan struct{}), ids: ids, stats: stats, elapsed: elapsed, filled: true}
	close(slot.done)
	c.slots[key] = slot
	return true
}

// Drop removes the completed slot at key (stale classification),
// reporting whether anything was dropped. In-flight slots are left alone.
func (c *Cache) Drop(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slots[key]
	if !ok {
		return false
	}
	select {
	case <-slot.done:
		delete(c.slots, key)
		return true
	default:
		return false
	}
}

// InvalidateGeneration drops every completed result for the named dataset
// at generations up to and including gen — the post-maintenance sweep
// that clears slots no request can reach anymore. Like InvalidateDataset,
// in-flight computations are left to finish into their unreachable keys.
func (c *Cache) InvalidateGeneration(name string, gen int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, slot := range c.slots {
		if key.Dataset != name || key.Gen > gen {
			continue
		}
		select {
		case <-slot.done:
			delete(c.slots, key)
			dropped++
		default:
		}
	}
	return dropped
}

// evict removes the slot if it is still the one mapped at key.
func (c *Cache) evict(key Key, slot *computation) {
	c.mu.Lock()
	if c.slots[key] == slot {
		delete(c.slots, key)
	}
	c.mu.Unlock()
}

// Peek reports whether key has a completed result, without computing.
func (c *Cache) Peek(key Key) (CachedResult, bool) {
	c.mu.Lock()
	slot, ok := c.slots[key]
	c.mu.Unlock()
	if !ok {
		return CachedResult{}, false
	}
	select {
	case <-slot.done:
	default:
		return CachedResult{}, false
	}
	if slot.err != nil {
		return CachedResult{}, false
	}
	return CachedResult{IDs: slot.ids, Stats: slot.stats, Elapsed: slot.elapsed, Cached: true}, true
}

// InvalidateDataset drops every completed result for the named dataset,
// returning how many were dropped. In-flight computations are left to
// finish — their slot lingers, but because keys carry the registration
// generation it can never be reached by requests for a re-registered
// dataset; the few ints it holds are the cost of not blocking removal on
// a running solver.
func (c *Cache) InvalidateDataset(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, slot := range c.slots {
		if key.Dataset != name {
			continue
		}
		select {
		case <-slot.done:
			delete(c.slots, key)
			dropped++
		default:
			// Still computing; followers arriving before completion (all
			// necessarily holding the same now-removed generation) still
			// share the flight.
		}
	}
	return dropped
}

// Len returns the number of slots (completed or in flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}
