package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rrr/internal/dataset"
)

// registerGenerated registers a synthetic dataset on the service.
func registerGenerated(t *testing.T, svc *Service, name, kind string, n, d int) {
	t.Helper()
	table, err := dataset.ByKind(kind, n, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Registry().Register(name, table); err != nil {
		t.Fatal(err)
	}
}

// TestShardedServiceEquivalence: two services, one sharded, one not, serve
// identical representatives for the deterministic paths — the serving
// layer preserves the engine's exactness guarantee.
func TestShardedServiceEquivalence(t *testing.T) {
	plain := New(Config{Seed: 1})
	sharded := New(Config{Seed: 1, Shards: 4})
	for _, svc := range []*Service{plain, sharded} {
		registerGenerated(t, svc, "uni", "independent", 400, 2)
	}
	base, err := plain.Representative(context.Background(), "uni", 10, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Representative(context.Background(), "uni", 10, "2drrr")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.IDs) != len(got.IDs) {
		t.Fatalf("sizes differ: %v vs %v", base.IDs, got.IDs)
	}
	for i := range base.IDs {
		if base.IDs[i] != got.IDs[i] {
			t.Fatalf("IDs differ: %v vs %v", base.IDs, got.IDs)
		}
	}
	if got.Stats.Shards != 4 || got.Stats.Candidates <= 0 {
		t.Fatalf("sharded stats not threaded: %+v", got.Stats)
	}
	if base.Stats.Shards != 0 {
		t.Fatalf("unsharded stats report shards: %+v", base.Stats)
	}
}

// TestShardedCacheKeys: the shard fingerprint is part of the cache key, so
// a sharded service's slots can never collide with unsharded ones — and
// repeated requests still hit.
func TestShardedCacheKeys(t *testing.T) {
	svc := New(Config{Seed: 1, Shards: 2})
	registerGenerated(t, svc, "uni", "independent", 200, 2)
	entry, err := svc.Registry().Get("uni")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Representative(context.Background(), "uni", 5, ""); err != nil {
		t.Fatal(err)
	}
	shardedKey := Key{Dataset: "uni", Gen: entry.Gen, K: 5, Algo: "2drrr", Shards: "contig:2"}
	if _, ok := svc.cache.Peek(shardedKey); !ok {
		t.Fatalf("no cached result under sharded key %+v", shardedKey)
	}
	plainKey := shardedKey
	plainKey.Shards = ""
	if _, ok := svc.cache.Peek(plainKey); ok {
		t.Fatal("sharded result reachable under unsharded key")
	}
	rep, err := svc.Representative(context.Background(), "uni", 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Fatal("second request missed the cache")
	}
}

// TestShardCountersInStats: sharded computations show up in the snapshot's
// shard section with a sane prune ratio.
func TestShardCountersInStats(t *testing.T) {
	svc := New(Config{Seed: 1, Shards: 4})
	registerGenerated(t, svc, "uni", "independent", 400, 2)
	if _, err := svc.Representative(context.Background(), "uni", 10, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Batch(context.Background(), "uni", "", []BatchQuery{{K: 20}, {K: 30}}); err != nil {
		t.Fatal(err)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Shard.ShardedSolves != 2 {
		t.Fatalf("sharded_solves = %d, want 2 (one representative, one batch)", snap.Shard.ShardedSolves)
	}
	if snap.Shard.ShardsDone != 8 {
		t.Fatalf("shards_done = %d, want 8", snap.Shard.ShardsDone)
	}
	if snap.Shard.Candidates <= 0 || snap.Shard.InputTuples != 800 {
		t.Fatalf("shard counters off: %+v", snap.Shard)
	}
	if snap.Shard.PruneRatio <= 0 || snap.Shard.PruneRatio >= 1 {
		t.Fatalf("prune ratio %v out of (0,1)", snap.Shard.PruneRatio)
	}
}

// TestMetricsEndpoint: /v1/metrics serves the Prometheus text exposition
// with the counters and the latency histogram series.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Seed: 1, Shards: 2})
	registerGenerated(t, svc, "uni", "independent", 300, 2)
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	if resp, err := srv.Client().Get(srv.URL + "/v1/representative?dataset=uni&k=10"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("representative: status %d", resp.StatusCode)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the text exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE rrrd_cache_misses_total counter",
		"rrrd_cache_misses_total 1",
		"rrrd_sharded_solves_total 1",
		"rrrd_shards_done_total 2",
		"rrrd_shard_input_tuples_total 300",
		"# TYPE rrrd_solve_duration_seconds histogram",
		`rrrd_solve_duration_seconds_bucket{algorithm="2drrr",le="+Inf"} 1`,
		`rrrd_solve_duration_seconds_count{algorithm="2drrr"} 1`,
		"rrrd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// Only the versioned path serves: the unversioned one is unknown.
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned /metrics: status %d, want %d", resp2.StatusCode, http.StatusNotFound)
	}
}

// TestWatchCountersBothSurfaces: the watch.Counters methods land in the
// watch section of the snapshot. Both surfaces render those values from
// the same signals entries, which the promdrift tests hold in step.
func TestWatchCountersBothSurfaces(t *testing.T) {
	svc := New(Config{Seed: 1})
	m := svc.Metrics()
	m.WatchSubscribers(2)
	m.WatchSubscribers(-1)
	m.WatchEvents(3)
	m.WatchDropped()
	m.WatchResumed()

	snap := m.Snapshot()
	if snap.Watch.Subscribers != 1 || snap.Watch.Events != 3 || snap.Watch.Dropped != 1 || snap.Watch.Resumes != 1 {
		t.Fatalf("stats watch section = %+v, want {1 3 1 1}", snap.Watch)
	}
}
