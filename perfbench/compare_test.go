package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func result(seed int64, params map[string]any, metrics map[string]float64) resultFile {
	rf := resultFile{
		Env:      environment{Commit: "a", GoVersion: "go1.24", NProc: 2, GOMAXPROCS: 2, Seed: seed, Seconds: 20, Fsync: "none"},
		Workload: "cold-2d",
		Params:   params,
		Summary:  summary{Correct: true, Metrics: map[string]metricValue{}},
	}
	for n, v := range metrics {
		rf.Summary.Metrics[n] = metricValue{Value: v}
	}
	return rf
}

var testDef = benchDef{EndToEnd: []boundDef{
	{Name: "solve_p50_ms", Better: "lower", Bound: 0.1},
	{Name: "solves_per_s", Better: "higher", Bound: 0.1},
}}

func TestCompareVerdicts(t *testing.T) {
	p := map[string]any{"n": 1000.0}
	old := []resultFile{result(1, p, map[string]float64{"solve_p50_ms": 100, "solves_per_s": 10})}
	for _, c := range []struct {
		p50, rate         float64
		wantP50, wantRate string
	}{
		{105, 9.5, verdictWithin, verdictWithin},
		{120, 8, verdictWorse, verdictWorse},
		{80, 12, verdictBetter, verdictBetter},
	} {
		next := []resultFile{result(1, p, map[string]float64{"solve_p50_ms": c.p50, "solves_per_s": c.rate})}
		next[0].Env.Commit, next[0].Env.InjectMS = "b", 30 // neither blocks a comparison
		diffs, err := compareResults(old, next, testDef)
		if err != nil {
			t.Fatal(err)
		}
		if diffs[0].Verdict != c.wantP50 || diffs[1].Verdict != c.wantRate {
			t.Errorf("p50 %g, rate %g: verdicts %q %q, want %q %q", c.p50, c.rate, diffs[0].Verdict, diffs[1].Verdict, c.wantP50, c.wantRate)
		}
	}
}

// TestCompareFlagsFailuresAndChangedAnswers: a single extra failure or a
// single changed answer makes the comparison worse, whatever the bounds.
func TestCompareFlagsFailuresAndChangedAnswers(t *testing.T) {
	p := map[string]any{"n": 1000.0}
	m := map[string]float64{"solve_p50_ms": 100, "solves_per_s": 10}
	old := result(1, p, m)
	old.Answers = map[string][]int{"/a": {1, 2}, "/b": {3}}
	verdicts := func(next resultFile) (failed, changed string) {
		diffs, err := compareResults([]resultFile{old}, []resultFile{next}, testDef)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffs {
			switch d.Name {
			case "failed":
				failed = d.Verdict
			case "answers_changed":
				changed = d.Verdict
			}
		}
		return failed, changed
	}
	same := result(1, p, m)
	same.Answers = map[string][]int{"/a": {1, 2}, "/c": {9}} // /c was not asked on the old side
	if f, c := verdicts(same); f != verdictWithin || c != verdictWithin {
		t.Errorf("identical run: failed %q, answers_changed %q", f, c)
	}
	oneFailure := same
	oneFailure.Summary.Failed, oneFailure.Summary.Correct = 1, false
	if f, _ := verdicts(oneFailure); f != verdictWorse {
		t.Errorf("one failed operation: failed %q, want %q", f, verdictWorse)
	}
	altered := result(1, p, m)
	altered.Answers = map[string][]int{"/a": {1, 4}}
	if _, c := verdicts(altered); c != verdictWorse {
		t.Errorf("one changed answer: answers_changed %q, want %q", c, verdictWorse)
	}
	var out strings.Builder
	diffs, _ := compareResults([]resultFile{old}, []resultFile{altered}, testDef)
	if code := printDiffs(&out, diffs); code != 1 {
		t.Errorf("exit code %d with a changed answer, want 1:\n%s", code, out.String())
	}
}

func TestCompareRefusesDifferentParameters(t *testing.T) {
	m := map[string]float64{"solve_p50_ms": 100}
	base := result(1, map[string]any{"n": 1000.0}, m)
	for name, other := range map[string]resultFile{
		"params":     result(1, map[string]any{"n": 2000.0}, m),
		"seed":       result(2, map[string]any{"n": 1000.0}, m),
		"gomaxprocs": func() resultFile { r := result(1, map[string]any{"n": 1000.0}, m); r.Env.GOMAXPROCS = 4; return r }(),
		"traced":     func() resultFile { r := result(1, map[string]any{"n": 1000.0}, m); r.Env.Traced = true; return r }(),
		"fsync":      func() resultFile { r := result(1, map[string]any{"n": 1000.0}, m); r.Env.Fsync = "never"; return r }(),
		"workload":   func() resultFile { r := result(1, map[string]any{"n": 1000.0}, m); r.Workload = "cold-md"; return r }(),
	} {
		if _, err := compareResults([]resultFile{base}, []resultFile{other}, testDef); err == nil {
			t.Errorf("a comparison across a different %s was not refused", name)
		}
	}
}

// TestInjectedDelayIsReportedWorse proves the bounds bite: a fixed delay
// added to every request in the benchmark's own client must make the
// comparison against a clean run call solve_p50_ms and read_p50_us worse.
// The delay is the clean run's median solve time, so the check holds on a
// slow machine (or under the race detector) as well as a fast one.
func TestInjectedDelayIsReportedWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cold-2d workload twice")
	}
	def, err := loadBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runOnce := func(injectMS float64) resultFile {
		out := filepath.Join(dir, fmt.Sprintf("inject%g.json", injectMS))
		args := []string{"--workload", "cold-2d", "--seed", "5", "--seconds", "1", "--trace", "0",
			"-dir", dir, "-out", out, "-inject-ms", fmt.Sprint(injectMS)}
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		rs, err := loadResults(out)
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	clean := runOnce(0)
	slow := runOnce(math.Ceil(clean.Summary.Metrics["solve_p50_ms"].Value))
	diffs, err := compareResults([]resultFile{clean}, []resultFile{slow}, def)
	if err != nil {
		t.Fatal(err)
	}
	worse := map[string]bool{}
	var report strings.Builder
	for _, d := range diffs {
		worse[d.Name] = d.Verdict == verdictWorse
		printDiffs(&report, []metricDiff{d})
	}
	for _, name := range []string{"solve_p50_ms", "read_p50_us"} {
		if !worse[name] {
			t.Errorf("%s not reported worse with a delay injected:\n%s", name, report.String())
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the runner prints
// and the ones BENCHMARK.json declares the same, names and units alike.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared []boundDef
		printed  []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the runner prints %d", c.name, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the runner %s (%s)", c.name, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}
