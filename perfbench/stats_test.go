package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ p, want float64 }{{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		pct, value float64
		beyond     int
	}{
		{100, 90, 90, 10},       // p95 would leave only 5 beyond
		{200, 95, 190, 10},      // p95 exactly qualifies
		{1000, 99, 990, 10},     // p99.9 leaves 1
		{20, 50, 10, 10},        // p75 leaves 5
		{10001, 99.9, 9991, 10}, // nearest rank rounds up
		{5, 100, 5, 0},          // too few: the maximum
	} {
		got := tail(seq(c.n))
		if got.Percentile != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tail of 1..%d = %+v, want p%g = %g with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
	}
}

func TestTailAtFixesThePercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		pct, value float64
		beyond     int
	}{
		{1000, 95, 95, 950, 50},  // p99 would qualify too, but p95 was asked for
		{260, 95, 95, 247, 13},   // a short run keeps the fixed percentile
		{150, 95, 90, 135, 15},   // far short of the plan: one step down
		{5000, 99, 99, 4950, 50}, // never above the asked percentile
		{5, 95, 100, 5, 0},       // too few: the maximum
	} {
		got := tailAt(seq(c.n), c.p)
		if got.Percentile != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tailAt(1..%d, p%g) = %+v, want p%g = %g with %d beyond", c.n, c.p, got, c.pct, c.value, c.beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5, 9.25, 2, 7}, [3]float64{1.75, 5, 8.125}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	s := schedule{start: t0, interval: 10 * time.Millisecond}
	if got := s.due(3); !got.Equal(at(30)) {
		t.Fatalf("due(3) = %v, want start+30ms", got.Sub(t0))
	}
	samples := []openLoopSample{
		// On time apart from 1 ms of timer slip, which is the generator's
		// own and is left out: 2 ms of service.
		{Due: at(0), Sent: at(1), Done: at(3)},
		// Due at 10 ms but the previous request only finished at 50 ms:
		// the 40 ms stall is charged, the 0.1 ms loop gap is not.
		{Due: at(10), PrevDone: at(50), Sent: at(50.1), Done: at(52)},
		// Sent early (clock skew) counts as on time.
		{Due: at(20), PrevDone: at(52), Sent: at(52), Done: at(53)},
	}
	lat, late := openLoopStats(samples, time.Millisecond)
	wantLat := []float64{2, 33, 41.9}
	wantLate := []float64{1, 32, 40.1}
	for i := range wantLat {
		if math.Abs(lat[i]-wantLat[i]) > 1e-9 || math.Abs(late[i]-wantLate[i]) > 1e-9 {
			t.Fatalf("latencies %v lateness %v, want %v and %v", lat, late, wantLat, wantLate)
		}
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "solve", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "encode", Start: ms(30), End: ms(60)},   // overlaps solve
		{ID: 4, Parent: 1, Name: "publish", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "sweep", Start: ms(15), End: ms(20)},
		{ID: 6, Name: "other request", Start: ms(0), End: ms(10)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(40), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(5), 6: ms(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestUnattributedShareFromSpans(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Request: 7, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Request: 7, Name: "replay", Start: ms(100), End: ms(200)},
		{ID: 3, Parent: 2, Request: 7, Name: "solver.solve", Start: ms(100), End: ms(160)},
		{ID: 4, Request: 8, Name: "request", Start: ms(200), End: ms(250)}, // never replayed
		{ID: 5, Request: 9, Name: "read", Start: ms(250), End: ms(251)},
		{ID: 6, Request: 9, Name: "solver.solve", Start: ms(251), End: ms(260)}, // a cache hit has no solve
	}
	got := unattributedShares(spans)
	if len(got) != 1 || math.Abs(got[0]-0.4) > 1e-12 {
		t.Errorf("unattributed shares = %v, want [0.4]: (100 − 60) ÷ 100 for request 7 only", got)
	}
}
