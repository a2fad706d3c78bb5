package service

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrr/internal/trace"
)

// latencyBuckets are the upper bounds of the per-algorithm latency
// histogram, chosen to straddle the repository's measured range: 2-D runs
// finish in microseconds, MDRC on paper-scale data takes seconds.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
}

// phaseBuckets bound the per-phase histograms. Phases run finer than whole
// solves — a plan span is nanoseconds, a shard map tens of milliseconds —
// so the grid reaches two decades lower than latencyBuckets.
var phaseBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// numBuckets counts the histogram slots: one per bound plus overflow.
const numBuckets = 8

// histogram is a fixed-bucket latency histogram; the last index is the
// overflow bucket. bounds holds numBuckets-1 entries (latencyBuckets or
// phaseBuckets). Each bucket additionally retains its latest traced
// observation as an exemplar — the OpenMetrics "jump from a bucket to the
// trace that put a count there" link.
type histogram struct {
	counts    [numBuckets]atomic.Int64
	sum       atomic.Int64 // nanoseconds
	total     atomic.Int64
	bounds    []time.Duration
	exemplars [numBuckets]atomic.Pointer[exemplar]
}

// exemplar is one traced observation pinned to its histogram bucket,
// rendered only on the OpenMetrics surface (the classic text format has
// no exemplar syntax).
type exemplar struct {
	traceID string
	value   float64 // seconds — always within the bucket's le bound
	atNanos int64   // unix nanoseconds of the observation
}

func (h *histogram) observe(d time.Duration) {
	h.observeTraced(d, trace.TraceID{})
}

// observeTraced is observe plus exemplar capture: a non-zero trace ID
// pins (trace_id, value, timestamp) to the observation's native bucket.
// Untraced observations skip the store entirely, so the zero-alloc
// paths never pay for the exemplar's string rendering.
func (h *histogram) observeTraced(d time.Duration, tid trace.TraceID) {
	bounds := h.bounds
	i := 0
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
	if !tid.IsZero() {
		h.exemplars[i].Store(&exemplar{traceID: tid.String(), value: d.Seconds(), atNanos: time.Now().UnixNano()})
	}
}

// HistogramSnapshot is the JSON-friendly view of one algorithm's latencies.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	MeanMS  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	bounds := h.bounds
	s := HistogramSnapshot{Buckets: make(map[string]int64, len(bounds)+1)}
	for i := range h.counts {
		label := "+inf"
		if i < len(bounds) {
			label = "le_" + bounds[i].String()
		}
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets[label] = n
		}
	}
	s.Count = h.total.Load()
	if s.Count > 0 {
		s.MeanMS = float64(h.sum.Load()) / float64(s.Count) / 1e6
	}
	return s
}

// slot is one integer value Metrics stores: a counter, or a gauge the
// serving layer moves up and down. Exactly one entry of signals reads
// each slot.
type slot int

const (
	cacheHits slot = iota
	cacheMisses
	inFlight
	failures
	canceled
	batches
	batchItems
	coalescedJoins
	shardedSolves
	shardsDone
	shardCandidates
	shardInputTuples
	deltaMutations
	deltaMutatedTuples
	deltaRevalidated
	deltaRepaired
	deltaRecomputed
	walAppends
	walBytes
	replayedBatches
	warmedAnswers
	watchSubscribers
	watchEvents
	watchDropped
	watchResumes
	traceSampled
	traceUnsampled
	exportSpans
	exportBatches
	exportRetries
	exportFailures
	exportDropped
	numSlots
)

// Metrics aggregates the daemon's operational signals: stored slots,
// moved by add, and the per-algorithm and per-phase latency histograms.
// signals says how each is exposed. All methods are safe for concurrent
// use and safe on a nil receiver (components constructed without metrics
// just don't report).
type Metrics struct {
	values [numSlots]atomic.Int64
	// snapshotUnixNano is when the last snapshot was written (or, right
	// after boot, the mtime of the one that was read); 0 = none yet.
	snapshotUnixNano atomic.Int64

	mu        sync.Mutex
	latencies map[string]*histogram
	phases    map[string]*histogram

	start time.Time
}

// NewMetrics returns zeroed metrics with the uptime clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		latencies: make(map[string]*histogram),
		phases:    make(map[string]*histogram),
		start:     time.Now(),
	}
}

// add moves slot s by n: the one write path for stored signals.
func (m *Metrics) add(s slot, n int64) {
	if m != nil {
		m.values[s].Add(n)
	}
}

// histFor returns key's histogram in set, creating it with bounds on
// first use.
func (m *Metrics) histFor(set map[string]*histogram, key string, bounds []time.Duration) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := set[key]
	if !ok {
		h = &histogram{bounds: bounds}
		set[key] = h
	}
	return h
}

// PhaseObserve records one solve-phase duration — the trace recorder's
// sink (trace.PhaseSink), so every ended span feeds the
// rrrd_solve_phase_seconds histogram of its phase, carrying its trace
// ID as the bucket's exemplar. Called outside the recorder's lock;
// nil-safe like every Metrics method.
func (m *Metrics) PhaseObserve(phase string, d time.Duration, tid trace.TraceID) {
	if m != nil {
		m.histFor(m.phases, phase, phaseBuckets).observeTraced(d, tid)
	}
}

// shardSolve records one computation that went through the map-reduce
// engine: how many shards its plan held and how far the map phase pruned.
// No-op for unsharded results (shards == 0), so call sites don't branch.
func (m *Metrics) shardSolve(shards, candidates, input int) {
	if shards <= 0 {
		return
	}
	m.add(shardedSolves, 1)
	m.add(shardsDone, int64(shards))
	m.add(shardCandidates, int64(candidates))
	m.add(shardInputTuples, int64(input))
}

// The four methods below implement watch.Counters, and the five after
// them export.Counters, making *Metrics the watch hub's and the OTLP
// exporter's telemetry sink directly — no adapter layer to drift.

// WatchSubscribers moves the live watch-stream gauge by delta.
func (m *Metrics) WatchSubscribers(delta int) { m.add(watchSubscribers, int64(delta)) }

// WatchEvents records n events enqueued to watch subscribers (fan-out
// volume: one publish to N subscribers counts N).
func (m *Metrics) WatchEvents(n int) { m.add(watchEvents, int64(n)) }

// WatchDropped records one subscriber dropped by ring overflow.
func (m *Metrics) WatchDropped() { m.add(watchDropped, 1) }

// WatchResumed records one reconnect served by journal replay instead of
// a fresh snapshot.
func (m *Metrics) WatchResumed() { m.add(watchResumes, 1) }

// ExportedSpans counts spans delivered to the collector in accepted
// batches.
func (m *Metrics) ExportedSpans(n int) { m.add(exportSpans, int64(n)) }

// ExportBatches counts accepted batch POSTs to the collector.
func (m *Metrics) ExportBatches(n int) { m.add(exportBatches, int64(n)) }

// ExportRetries counts re-attempted batch POSTs after retryable
// failures.
func (m *Metrics) ExportRetries(n int) { m.add(exportRetries, int64(n)) }

// ExportFailures counts batches abandoned after their final attempt.
func (m *Metrics) ExportFailures(n int) { m.add(exportFailures, int64(n)) }

// ExportDroppedTraces counts traces that never reached the collector —
// queue overflow under a down or slow collector, or membership in an
// abandoned batch. This moving is the exporter's drop-never-block
// contract made visible.
func (m *Metrics) ExportDroppedTraces(n int) { m.add(exportDropped, int64(n)) }

// snapshotAt records when the registry snapshot was last written or read.
func (m *Metrics) snapshotAt(t time.Time) {
	if m != nil {
		m.snapshotUnixNano.Store(t.UnixNano())
	}
}

// failed counts one computation that ended in err. Cancellations (client
// gone, deadline hit) are operationally distinct from solver failures:
// one is demand disappearing, the other is the system misbehaving.
func (m *Metrics) failed(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.add(canceled, 1)
	} else {
		m.add(failures, 1)
	}
}

// batchItemFinished records one batch item's outcome. Failures and
// cancellations count like single computations; successful items are
// carried by the batch-level latency entry, so they are not re-counted
// here.
func (m *Metrics) batchItemFinished(err error) {
	if err != nil {
		m.failed(err)
	}
}

// computeFinished closes one computation's accounting. A non-zero tid
// — the trace of the request that started the computation — becomes the
// latency bucket's exemplar on the OpenMetrics surface.
func (m *Metrics) computeFinished(algo string, elapsed time.Duration, err error, tid trace.TraceID) {
	if m == nil {
		return
	}
	m.add(inFlight, -1)
	if err != nil {
		m.failed(err)
		return
	}
	m.histFor(m.latencies, algo, latencyBuckets).observeTraced(elapsed, tid)
}

// A signal is one operational value rrrd reports, declared once: its
// Prometheus family, HELP text and type, the Snapshot field that places
// it in /v1/stats, and where its value comes from. Snapshot,
// WritePrometheus and WriteOpenMetrics all iterate signals; none of them
// names a signal.
type signal struct {
	// name is the Prometheus family (counters carry the _total suffix).
	// Empty for a derived value: /v1/stats reports it, a scraper
	// computes it from other families.
	name string
	// help is the family's HELP text; for a derived value, the formula.
	help string
	typ  string // "counter", "gauge" or "histogram"
	// label tells a histogram's series apart.
	label string
	// stat points at the Snapshot field the signal fills — *int64,
	// *float64 or *map[string]HistogramSnapshot — and so fixes its
	// /v1/stats JSON path.
	stat func(*Snapshot) any

	// The value comes from exactly one source: a set of histograms
	// (hists, read under Metrics.mu), process state at snapshot time
	// (read), the other Snapshot fields (derive), or, when all three are
	// nil, the stored slot src.
	src    slot
	hists  func(*Metrics) map[string]*histogram
	read   func(*Metrics, *runtime.MemStats) float64
	derive func(*Snapshot) float64
}

// signals is the registry: every /v1/stats leaf and every /v1/metrics
// family comes from exactly one entry. Snapshot fills the entries in
// order and the expositions render them in order.
var signals = []signal{
	{name: "rrrd_uptime_seconds", typ: "gauge", help: "Seconds since the metrics were created.",
		stat: func(s *Snapshot) any { return &s.UptimeSeconds },
		read: func(m *Metrics, _ *runtime.MemStats) float64 { return time.Since(m.start).Seconds() }},
	{name: "rrrd_cache_hits_total", typ: "counter", src: cacheHits, help: "Requests served from a completed or shared computation.",
		stat: func(s *Snapshot) any { return &s.CacheHits }},
	{name: "rrrd_cache_misses_total", typ: "counter", src: cacheMisses, help: "Requests that started a new computation.",
		stat: func(s *Snapshot) any { return &s.CacheMisses }},
	{name: "rrrd_inflight_computations", typ: "gauge", src: inFlight, help: "Computations currently running.",
		stat: func(s *Snapshot) any { return &s.InFlight }},
	{name: "rrrd_failures_total", typ: "counter", src: failures, help: "Computations that failed (excluding cancellations).",
		stat: func(s *Snapshot) any { return &s.Failures }},
	{name: "rrrd_canceled_total", typ: "counter", src: canceled, help: "Computations canceled by waiter abandonment or deadlines.",
		stat: func(s *Snapshot) any { return &s.Canceled }},
	{name: "rrrd_batches_total", typ: "counter", src: batches, help: "Batch computations started.",
		stat: func(s *Snapshot) any { return &s.Batches }},
	{name: "rrrd_batch_items_total", typ: "counter", src: batchItems, help: "Keys claimed by batch computations.",
		stat: func(s *Snapshot) any { return &s.BatchItems }},
	{name: "rrrd_coalesced_joins_total", typ: "counter", src: coalescedJoins, help: "Requests that joined a key an in-flight batch claimed.",
		stat: func(s *Snapshot) any { return &s.CoalescedJoins }},
	{name: "rrrd_sharded_solves_total", typ: "counter", src: shardedSolves, help: "Computations routed through the map-reduce shard engine.",
		stat: func(s *Snapshot) any { return &s.Shard.ShardedSolves }},
	{name: "rrrd_shards_done_total", typ: "counter", src: shardsDone, help: "Shards whose map-phase extraction completed.",
		stat: func(s *Snapshot) any { return &s.Shard.ShardsDone }},
	{name: "rrrd_shard_candidates_total", typ: "counter", src: shardCandidates, help: "Candidate tuples the map phases kept.",
		stat: func(s *Snapshot) any { return &s.Shard.Candidates }},
	{name: "rrrd_shard_input_tuples_total", typ: "counter", src: shardInputTuples, help: "Tuples the map phases saw before pruning.",
		stat: func(s *Snapshot) any { return &s.Shard.InputTuples }},
	{name: "rrrd_delta_mutations_total", typ: "counter", src: deltaMutations, help: "Mutation batches applied to registered datasets.",
		stat: func(s *Snapshot) any { return &s.Delta.Mutations }},
	{name: "rrrd_delta_mutated_tuples_total", typ: "counter", src: deltaMutatedTuples, help: "Tuples appended or deleted by mutation batches.",
		stat: func(s *Snapshot) any { return &s.Delta.MutatedTuples }},
	{name: "rrrd_delta_revalidated_total", typ: "counter", src: deltaRevalidated, help: "Cached answers proven still exact across a mutation and re-keyed.",
		stat: func(s *Snapshot) any { return &s.Delta.Revalidated }},
	{name: "rrrd_delta_repaired_total", typ: "counter", src: deltaRepaired, help: "Cached answers repaired by a reduce-phase re-run on the patched pool.",
		stat: func(s *Snapshot) any { return &s.Delta.Repaired }},
	{name: "rrrd_delta_recomputed_total", typ: "counter", src: deltaRecomputed, help: "Cached answers invalidated by a mutation for lazy full recompute.",
		stat: func(s *Snapshot) any { return &s.Delta.Recomputed }},
	{name: "rrrd_wal_appends_total", typ: "counter", src: walAppends, help: "Mutation batches made durable in the write-ahead log.",
		stat: func(s *Snapshot) any { return &s.Persist.WALAppends }},
	{name: "rrrd_wal_bytes_total", typ: "counter", src: walBytes, help: "Bytes appended to the write-ahead log.",
		stat: func(s *Snapshot) any { return &s.Persist.WALBytes }},
	{name: "rrrd_replayed_batches_total", typ: "counter", src: replayedBatches, help: "WAL batches re-applied during boot recovery.",
		stat: func(s *Snapshot) any { return &s.Persist.ReplayedBatches }},
	{name: "rrrd_warmed_answers_total", typ: "counter", src: warmedAnswers, help: "Cached answers readmitted from the warm-cache file at boot.",
		stat: func(s *Snapshot) any { return &s.Persist.WarmedAnswers }},
	{name: "rrrd_watch_subscribers", typ: "gauge", src: watchSubscribers, help: "Watch streams currently open.",
		stat: func(s *Snapshot) any { return &s.Watch.Subscribers }},
	{name: "rrrd_watch_events_total", typ: "counter", src: watchEvents, help: "Events enqueued to watch subscribers (one publish to N subscribers counts N).",
		stat: func(s *Snapshot) any { return &s.Watch.Events }},
	{name: "rrrd_watch_dropped_total", typ: "counter", src: watchDropped, help: "Watch subscribers dropped after overflowing their event ring.",
		stat: func(s *Snapshot) any { return &s.Watch.Dropped }},
	{name: "rrrd_watch_resumes_total", typ: "counter", src: watchResumes, help: "Watch reconnects resumed by journal replay instead of a fresh snapshot.",
		stat: func(s *Snapshot) any { return &s.Watch.Resumes }},
	{name: "rrrd_trace_sampled_total", typ: "counter", src: traceSampled, help: "Head-sampling decisions that recorded the trace.",
		stat: func(s *Snapshot) any { return &s.Trace.Sampled }},
	{name: "rrrd_trace_unsampled_total", typ: "counter", src: traceUnsampled, help: "Head-sampling decisions that declined the trace.",
		stat: func(s *Snapshot) any { return &s.Trace.Unsampled }},
	{name: "rrrd_trace_export_spans_total", typ: "counter", src: exportSpans, help: "Spans delivered to the OTLP collector in accepted batches.",
		stat: func(s *Snapshot) any { return &s.Trace.ExportedSpans }},
	{name: "rrrd_trace_export_batches_total", typ: "counter", src: exportBatches, help: "Batch POSTs the OTLP collector accepted.",
		stat: func(s *Snapshot) any { return &s.Trace.ExportedBatches }},
	{name: "rrrd_trace_export_retries_total", typ: "counter", src: exportRetries, help: "Batch POSTs re-attempted after retryable collector failures.",
		stat: func(s *Snapshot) any { return &s.Trace.ExportRetries }},
	{name: "rrrd_trace_export_failures_total", typ: "counter", src: exportFailures, help: "Batches abandoned after their final delivery attempt.",
		stat: func(s *Snapshot) any { return &s.Trace.ExportFailures }},
	{name: "rrrd_trace_export_dropped_total", typ: "counter", src: exportDropped, help: "Traces dropped instead of blocking a request on a slow or down collector.",
		stat: func(s *Snapshot) any { return &s.Trace.ExportDropped }},
	// -1 = no snapshot yet, on both surfaces, so the series set never
	// depends on state.
	{name: "rrrd_snapshot_age_seconds", typ: "gauge", help: "Seconds since the registry snapshot was last written (-1 when none).",
		stat: func(s *Snapshot) any { return &s.Persist.SnapshotAgeSeconds },
		read: func(m *Metrics, _ *runtime.MemStats) float64 {
			ns := m.snapshotUnixNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		}},
	{name: "rrrd_goroutines", typ: "gauge", help: "Goroutines currently live in the process.",
		stat: func(s *Snapshot) any { return &s.Runtime.Goroutines },
		read: func(*Metrics, *runtime.MemStats) float64 { return float64(runtime.NumGoroutine()) }},
	{name: "rrrd_heap_alloc_bytes", typ: "gauge", help: "Heap bytes allocated and still in use.",
		stat: func(s *Snapshot) any { return &s.Runtime.HeapAllocBytes },
		read: func(_ *Metrics, ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }},
	{name: "rrrd_gc_pause_seconds_total", typ: "counter", help: "Cumulative GC stop-the-world pause time.",
		stat: func(s *Snapshot) any { return &s.Runtime.GCPauseSecondsTotal },
		read: func(_ *Metrics, ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }},
	{name: "rrrd_solve_duration_seconds", typ: "histogram", label: "algorithm", help: "Successful computation latency by algorithm.",
		stat:  func(s *Snapshot) any { return &s.Latencies },
		hists: func(m *Metrics) map[string]*histogram { return m.latencies }},
	{name: "rrrd_solve_phase_seconds", typ: "histogram", label: "phase", help: "Solve-phase duration from trace spans, by phase.",
		stat:  func(s *Snapshot) any { return &s.Phases },
		hists: func(m *Metrics) map[string]*histogram { return m.phases }},
	// Derived values come last: they read the fields filled above.
	{help: "sum(rrrd_solve_duration_seconds_count) across algorithms",
		stat: func(s *Snapshot) any { return &s.Computations },
		derive: func(s *Snapshot) float64 {
			n := int64(0)
			for _, h := range s.Latencies {
				n += h.Count
			}
			return float64(n)
		}},
	{help: "1 - rrrd_shard_candidates_total / rrrd_shard_input_tuples_total",
		stat: func(s *Snapshot) any { return &s.Shard.PruneRatio },
		derive: func(s *Snapshot) float64 {
			if s.Shard.InputTuples == 0 {
				return 0
			}
			return 1 - float64(s.Shard.Candidates)/float64(s.Shard.InputTuples)
		}},
}

// series is one labeled histogram of a histogram signal.
type series struct {
	value string
	h     *histogram
}

// series returns sig's histograms sorted by label value. The lock covers
// only the map copy, never the caller's writes: those may go to a slow
// client, and computeFinished takes the same mutex on every successful
// solve. The histograms themselves are atomics, safe to read unlocked.
func (m *Metrics) series(sig *signal) []series {
	m.mu.Lock()
	hs := sig.hists(m)
	out := make([]series, 0, len(hs))
	for v, h := range hs {
		out = append(out, series{v, h})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

// ShardSnapshot summarizes the map-reduce engine's activity: how many
// computations were sharded, the total shards their plans held, and the
// aggregate pruning power of the map phases (candidate tuples kept vs
// input tuples seen).
type ShardSnapshot struct {
	ShardedSolves int64 `json:"sharded_solves"`
	ShardsDone    int64 `json:"shards_done"`
	Candidates    int64 `json:"candidates"`
	InputTuples   int64 `json:"input_tuples"`
	// PruneRatio is 1 − Candidates/InputTuples across all sharded solves.
	PruneRatio float64 `json:"prune_ratio"`
}

// DeltaSnapshot summarizes the delta engine's activity: mutation batches
// applied, tuples they touched, and what happened to the cached answers
// they crossed — revalidated (proven still exact, re-keyed to the new
// generation), repaired (reduce-phase re-run on the patched pool), or
// recomputed (invalidated; the full solve happens lazily on the next
// request).
type DeltaSnapshot struct {
	Mutations     int64 `json:"mutations"`
	MutatedTuples int64 `json:"mutated_tuples"`
	Revalidated   int64 `json:"revalidated"`
	Repaired      int64 `json:"repaired"`
	Recomputed    int64 `json:"recomputed"`
}

// PersistSnapshot summarizes the durability layer: WAL appends and bytes
// since boot, batches replayed and answers warmed during the last
// recovery, and how stale the on-disk snapshot is (-1 when the daemon
// runs memory-only or has not snapshotted yet).
type PersistSnapshot struct {
	WALAppends         int64   `json:"wal_appends"`
	WALBytes           int64   `json:"wal_bytes"`
	ReplayedBatches    int64   `json:"replayed_batches"`
	WarmedAnswers      int64   `json:"warmed_answers"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// WatchSnapshot summarizes the live-update push subsystem: streams open
// right now, events fanned out to subscribers, subscribers dropped for
// falling behind their ring, and reconnects resumed by journal replay.
type WatchSnapshot struct {
	Subscribers int64 `json:"subscribers"`
	Events      int64 `json:"events"`
	Dropped     int64 `json:"dropped"`
	Resumes     int64 `json:"resumes"`
}

// TraceSnapshot summarizes the tracing pipeline: head-sampling
// decisions each way, and the OTLP exporter's delivery ledger — spans
// and batches accepted by the collector, retried and abandoned POSTs,
// and traces dropped to keep export off the request path.
type TraceSnapshot struct {
	Sampled         int64 `json:"sampled"`
	Unsampled       int64 `json:"unsampled"`
	ExportedSpans   int64 `json:"exported_spans"`
	ExportedBatches int64 `json:"exported_batches"`
	ExportRetries   int64 `json:"export_retries"`
	ExportFailures  int64 `json:"export_failures"`
	ExportDropped   int64 `json:"export_dropped"`
}

// RuntimeSnapshot surfaces the Go runtime's health gauges: live
// goroutines, heap bytes in use, and cumulative GC stop-the-world pause
// time — the three numbers that distinguish "the solver is slow" from
// "the process is drowning".
type RuntimeSnapshot struct {
	Goroutines          int64   `json:"goroutines"`
	HeapAllocBytes      int64   `json:"heap_alloc_bytes"`
	GCPauseSecondsTotal float64 `json:"gc_pause_seconds_total"`
}

// Snapshot is the /v1/stats payload. Its fields are the shape of the
// JSON; signals fills them.
type Snapshot struct {
	UptimeSeconds  float64                      `json:"uptime_seconds"`
	CacheHits      int64                        `json:"cache_hits"`
	CacheMisses    int64                        `json:"cache_misses"`
	InFlight       int64                        `json:"in_flight"`
	Failures       int64                        `json:"failures"`
	Canceled       int64                        `json:"canceled"`
	Computations   int64                        `json:"computations"`
	Batches        int64                        `json:"batches"`
	BatchItems     int64                        `json:"batch_items"`
	CoalescedJoins int64                        `json:"coalesced_joins"`
	Shard          ShardSnapshot                `json:"shard"`
	Delta          DeltaSnapshot                `json:"delta"`
	Persist        PersistSnapshot              `json:"persist"`
	Watch          WatchSnapshot                `json:"watch"`
	Trace          TraceSnapshot                `json:"trace"`
	Runtime        RuntimeSnapshot              `json:"runtime"`
	Latencies      map[string]HistogramSnapshot `json:"latency_by_algorithm"`
	Phases         map[string]HistogramSnapshot `json:"latency_by_phase"`
}

// Snapshot captures the current value of every signal. Values are read
// individually without a global lock, so a snapshot taken mid-flight may
// be off by a request — fine for an operational endpoint. Derived values
// are computed last, from the snapshot itself, so they always agree with
// the fields they summarize.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i := range signals {
		sig := &signals[i]
		switch p := sig.stat(&s).(type) {
		case *map[string]HistogramSnapshot:
			*p = make(map[string]HistogramSnapshot)
			for _, se := range m.series(sig) {
				(*p)[se.value] = se.h.snapshot()
			}
		case *int64:
			if sig.stored() {
				*p = m.values[sig.src].Load()
			} else {
				*p = int64(sig.compute(m, &ms, &s))
			}
		case *float64:
			*p = sig.compute(m, &ms, &s)
		}
	}
	return s
}

// stored reports whether sig's value is its slot src.
func (sig *signal) stored() bool { return sig.hists == nil && sig.read == nil && sig.derive == nil }

// compute evaluates a read or derived signal.
func (sig *signal) compute(m *Metrics, ms *runtime.MemStats, s *Snapshot) float64 {
	if sig.derive != nil {
		return sig.derive(s)
	}
	return sig.read(m, ms)
}
