package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchDef is the part of BENCHMARK.json a comparison needs.
type benchDef struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

// boundDef is one metric with the direction that counts as better and,
// for end-to-end metrics, the share of the old median by which it may
// worsen before a comparison calls it worse.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdicts of one metric's comparison.
const (
	verdictWorse  = "worse"
	verdictBetter = "better"
	verdictWithin = "within bound"
	verdictInfo   = "no bound"
)

// metricDiff compares one metric's medians across two sets of runs.
type metricDiff struct {
	Name     string
	Unit     string
	Old, New float64
	// OldSpread and NewSpread are each side's interquartile distance as a
	// share of its median (0 for a single run).
	OldSpread, NewSpread float64
	Change               float64 // (new − old) ÷ old
	Bound                float64
	Verdict              string
}

// compareMain is `perfbench compare OLD NEW`, run from the repository
// root, where OLD and NEW are result files or comma-separated lists of
// them and the bounds come from BENCHMARK.json. It exits 0 when no
// bounded metric got worse and the new side failed no more operations and
// changed no answer, 1 otherwise, and 2 when the comparison is refused.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stdout, "usage: perfbench compare OLD[,OLD...] NEW[,NEW...]")
		return 2
	}
	def, err := loadBenchDef("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stdout, "compare:", err)
		return 2
	}
	olds, err := loadResults(args[0])
	if err == nil {
		var news []resultFile
		if news, err = loadResults(args[1]); err == nil {
			var diffs []metricDiff
			if diffs, err = compareResults(olds, news, def); err == nil {
				return printDiffs(stdout, diffs)
			}
		}
	}
	fmt.Fprintln(stdout, "compare refused:", err)
	return 2
}

func loadBenchDef(path string) (benchDef, error) {
	var def benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	return def, json.Unmarshal(b, &def)
}

func loadResults(list string) ([]resultFile, error) {
	var out []resultFile
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// comparable is everything two results must share to be compared: the
// workload, its parameters and the environment, except the commit (the
// thing being compared) and the injected delay (the self-test's change).
func comparable(rf resultFile) (string, error) {
	env := rf.Env
	env.Commit, env.InjectMS, env.Seed = "", 0, 0
	b, err := json.Marshal(struct {
		Workload string
		Params   map[string]any
		Env      environment
	}{rf.Workload, rf.Params, env})
	return string(b), err
}

// compareResults diffs the per-metric medians of two sets of runs. It
// refuses sets whose workload, parameters or environment differ, or
// whose seeds are not the same list.
func compareResults(olds, news []resultFile, def benchDef) ([]metricDiff, error) {
	if len(olds) == 0 || len(news) == 0 {
		return nil, errors.New("nothing to compare")
	}
	want, err := comparable(olds[0])
	if err != nil {
		return nil, err
	}
	for _, rf := range append(slices.Clone(olds), news...) {
		got, err := comparable(rf)
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("parameters differ:\n  %s\n  %s", want, got)
		}
	}
	if !slices.Equal(seeds(olds), seeds(news)) {
		return nil, fmt.Errorf("seeds differ: %v against %v", seeds(olds), seeds(news))
	}
	var diffs []metricDiff
	for _, b := range append(slices.Clone(def.EndToEnd), def.PerLayer...) {
		ov, okO := valuesOf(olds, b.Name)
		nv, okN := valuesOf(news, b.Name)
		if !okO || !okN {
			continue
		}
		o, n := median(ov), median(nv)
		d := metricDiff{Name: b.Name, Unit: b.Unit, Old: o, New: n, Bound: b.Bound, Verdict: verdictInfo,
			OldSpread: spread(ov), NewSpread: spread(nv)}
		if o != 0 {
			d.Change = (n - o) / o
		}
		if b.Bound > 0 {
			worse := d.Change
			if b.Better == "higher" {
				worse = -worse
			}
			switch {
			case worse > b.Bound:
				d.Verdict = verdictWorse
			case worse < -b.Bound:
				d.Verdict = verdictBetter
			default:
				d.Verdict = verdictWithin
			}
		}
		diffs = append(diffs, d)
	}
	return append(diffs, correctness(olds, news)...), nil
}

// correctness is two rows no bound loosens. failed is worse when the new
// side failed more operations than the old or reported itself incorrect.
// answers_changed counts the requests that a run of the old side and a run
// of the new side on the same seed both made but answered with different
// IDs; any at all is worse, since a change that only speeds a solver up
// must not change a single answer.
func correctness(olds, news []resultFile) []metricDiff {
	failed := metricDiff{Name: "failed", Unit: "count", Verdict: verdictWithin}
	changed := metricDiff{Name: "answers_changed", Unit: "count", Verdict: verdictWithin}
	for _, r := range olds {
		failed.Old += float64(r.Summary.Failed)
	}
	for _, n := range news {
		failed.New += float64(n.Summary.Failed)
		if !n.Summary.Correct {
			failed.Verdict = verdictWorse
		}
		for _, o := range olds {
			if o.Env.Seed != n.Env.Seed {
				continue
			}
			for path, ids := range n.Answers {
				if prev, ok := o.Answers[path]; ok && !slices.Equal(prev, ids) {
					changed.New++
				}
			}
		}
	}
	if failed.New > failed.Old {
		failed.Verdict = verdictWorse
	}
	if changed.New > 0 {
		changed.Verdict = verdictWorse
	}
	return []metricDiff{failed, changed}
}

func seeds(rs []resultFile) []int64 {
	var out []int64
	for _, r := range rs {
		out = append(out, r.Env.Seed)
	}
	slices.Sort(out)
	return out
}

// valuesOf collects one metric from every result; false if any lacks it.
func valuesOf(rs []resultFile, name string) ([]float64, bool) {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Summary.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs, len(vs) == len(rs)
}

func printDiffs(w io.Writer, diffs []metricDiff) int {
	code := 0
	for _, d := range diffs {
		fmt.Fprintf(w, "%-36s %14.4f (±%4.1f%%) -> %14.4f (±%4.1f%%) %-6s %+8.1f%%  (bound %.4g%%) %s\n",
			d.Name, d.Old, 100*d.OldSpread, d.New, 100*d.NewSpread, d.Unit, 100*d.Change, 100*d.Bound, d.Verdict)
		if d.Verdict == verdictWorse {
			code = 1
		}
	}
	return code
}
