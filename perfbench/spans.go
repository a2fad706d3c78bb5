package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval relative to the recorder's origin, the span that caused it (0
// for a root) and the request it belongs to.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent, request int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (r *recorder) end(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as a
// request timed by the load generator.
func (r *recorder) add(name string, parent, request int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// time runs fn inside a span and returns its duration.
func (r *recorder) time(name string, parent, request int, fn func(id int)) time.Duration {
	t0 := time.Now()
	id := r.start(name, parent, request)
	fn(id)
	r.end(id)
	return time.Since(t0)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every recorded span as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children count once,
// and children are clipped to the parent's interval).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// unattributedShares is, for every request that has both a "request"
// span (the request as its client timed it) and a "solver.solve" span (the
// same solve replayed through the solver alone), the share of the request
// the solver does not account for: (request − solve) ÷ request. It is the
// time spent in no recorded layer — HTTP, routing, the cache, encoding.
func unattributedShares(spans []span) []float64 {
	req := map[int]time.Duration{}
	solve := map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "request":
			req[s.Request] = s.dur()
		case "solver.solve":
			solve[s.Request] = s.dur()
		}
	}
	var out []float64
	for id, r := range req {
		if d, ok := solve[id]; ok && r > 0 {
			out = append(out, float64(r-d)/float64(r))
		}
	}
	sort.Float64s(out)
	return out
}
