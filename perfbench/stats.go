package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailLadder is the set of percentiles a tail metric may report, lowest
// first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: fewer and the "tail" is a handful of outliers.
const minBeyond = 10

// tailStat is a tail latency with the percentile it was taken at and the
// sample count behind it.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tail picks the highest ladder percentile that still has at least
// minBeyond samples strictly beyond its nearest rank. With too few
// samples for even the median to qualify it reports the maximum, at
// percentile 100 with nothing beyond.
func tail(sorted []float64) tailStat {
	return tailAt(sorted, tailLadder[len(tailLadder)-1])
}

// tailAt reports the ladder percentile p, or the highest one below it that
// still has at least minBeyond samples strictly beyond its nearest rank.
// A workload fixes p for each tail metric from the sample count its plan
// gives, so the percentile does not change when a slower run ends with a
// few samples fewer; the step down is for runs far short of the plan.
func tailAt(sorted []float64, p float64) tailStat {
	n := len(sorted)
	out := tailStat{Samples: n}
	if n == 0 {
		return out
	}
	out.Value, out.Percentile = sorted[n-1], 100
	for _, q := range tailLadder {
		r := int(math.Ceil(q / 100 * float64(n)))
		if q > p || n-r < minBeyond {
			break
		}
		out.Value, out.Percentile, out.Beyond = sorted[r-1], q, n-r
	}
	return out
}

// quartiles returns the three cut points of values into four groups with
// the "exclusive" method of Python's statistics.quantiles(values, n=4),
// which the acceptance check of this benchmark uses. It needs at least two
// values; with fewer it returns the single value (or zeros) three times.
func quartiles(values []float64) [3]float64 {
	s := sortedCopy(values)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Python clamps j to [1, n-1] first and then takes delta from the
		// clamped j, so tiny samples extrapolate exactly as it does.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance of values as a share of their
// median, the run-to-run stability figure of a metric.
func spread(values []float64) float64 {
	q := quartiles(values)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// median is the middle of values (mean of the two middle ones for an even
// count), 0 for none.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// schedule is an open-loop send schedule: request i is due at
// start + i·interval, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// openLoopSample is one request of an open loop. Latency runs from when
// the request was due, not from when it was sent, so a stall that delays
// later sends is charged to every request it delayed. Only the
// generator's own timer slip is left out: the time between the moment it
// could have sent (the due time, or the previous request's completion if
// that came later) and the moment it did. Lateness is how far behind its
// schedule the generator sent the request, for whatever reason.
type openLoopSample struct {
	Due, Sent, Done time.Time
	// PrevDone is when the sender's previous request completed (zero for
	// the first).
	PrevDone time.Time
}

func (s openLoopSample) latency() time.Duration {
	ready := s.Due
	if s.PrevDone.After(ready) {
		ready = s.PrevDone
	}
	slip := s.Sent.Sub(ready)
	if slip < 0 {
		slip = 0
	}
	return s.Done.Sub(s.Due) - slip
}

func (s openLoopSample) late() time.Duration {
	if d := s.Sent.Sub(s.Due); d > 0 {
		return d
	}
	return 0
}

// openLoopStats summarizes an open loop: latencies from due time and the
// generator's lateness, both in the given unit.
func openLoopStats(samples []openLoopSample, unit time.Duration) (lat, late []float64) {
	for _, s := range samples {
		lat = append(lat, float64(s.latency())/float64(unit))
		late = append(late, float64(s.late())/float64(unit))
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	return lat, late
}
