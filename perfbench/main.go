// Command perfbench is the repository's end-to-end benchmark. It drives an
// in-process rrrd (the service and its HTTP handler stack, built as the
// daemon builds them) through one workload and prints one JSON line:
//
//	perfbench --workload cold-2d --seed 1 --seconds 15 --trace 0
//	perfbench compare old.json new.json
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// each request is also replayed through the layers' public functions, each
// replay call wrapped in a span this command records itself, and the line
// carries the per-layer metrics. Every answer is checked for correctness
// outside the timed window. Each run also writes a result file recording
// its environment; compare diffs two of them against the bounds in
// BENCHMARK.json and refuses files whose parameters differ. NOTES.md in
// this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	inject   time.Duration
	dir      string // scratch and result directory
	out      string // result file path
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of rrrd sees, reported with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_ms", "ms"},
	{"solve_tail_ms", "ms"},
	{"solves_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_tail_us", "us"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"answer_size_mean", "count"},
	{"rank_regret_ratio_mean", "ratio"},
	{"success_rate", "ratio"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported with --trace 1.
var perLayer = []metricDef{
	{"loadgen.late_ms", "ms"},
	{"http.overhead_us", "us"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.waits", "count"},
	{"cache.computations", "count"},
	{"solver.solve_ms", "ms"},
	{"solver.unattributed_share", "ratio"},
	{"solver.sharded_ms", "ms"},
	{"prune.ms", "ms"},
	{"prune.kept_ratio", "ratio"},
	{"sweep.find_ranges_ms", "ms"},
	{"sweep.events", "count"},
	{"sweep.ranges", "count"},
	{"cover.ms", "ms"},
	{"cover.intervals", "count"},
	{"mdrc.ms", "ms"},
	{"mdrc.nodes", "count"},
	{"mdrc.fallback_solves", "count"},
	{"mdrc.fallback_rank_regret_ratio_max", "ratio"},
	{"quality.rank_regret_ratio_max", "ratio"},
	{"kset.sample_ms", "ms"},
	{"kset.draws", "count"},
	{"kset.ksets", "count"},
	{"kset.yield", "ratio"},
	{"kset.rank_regret_ratio_max", "ratio"},
	{"topk.us", "us"},
	{"delta.pool_build_ms", "ms"},
	{"delta.apply_us", "us"},
	{"delta.still_exact", "count"},
	{"delta.repaired", "count"},
	{"delta.stale", "count"},
	{"delta.kept_ratio", "ratio"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_batch", "bytes"},
	{"wal.replay_ms", "ms"},
	{"wal.replayed_batches", "count"},
	{"watch.publish_us", "us"},
	{"watch.events", "count"},
	{"watch.dropped", "count"},
	{"gc.pause_ms", "ms"},
	{"goroutines_max", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// outcome is what a workload reports back to the runner.
type outcome struct {
	attempted, failed int
	violations        []string
	notes             []string
	metrics           map[string]float64
	tails             map[string]tailStat
	params            map[string]any
	// counts are how many operations of each kind ran: results, not
	// parameters, so they never block a comparison.
	counts map[string]int
	// answers maps each request path to the IDs it was answered with, for
	// workloads whose answers depend only on the seed; compare uses them
	// to find answers a change altered.
	answers map[string][]int
	// latencyMS maps each cold request path to its latency, so a result
	// file shows which keys make the tail.
	latencyMS map[string]float64
}

func newOutcome(params map[string]any) *outcome {
	return &outcome{metrics: map[string]float64{}, tails: map[string]tailStat{}, params: params, counts: map[string]int{},
		answers: map[string][]int{}, latencyMS: map[string]float64{}}
}

// fail records a failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.violations) < 50 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// note records something worth reading that is not a failure.
func (o *outcome) note(format string, args ...any) {
	if len(o.notes) < 50 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// setTail records a tail metric, taken at percentile p (see tailAt), with
// its percentile and sample count.
func (o *outcome) setTail(name string, sorted []float64, p float64) {
	t := tailAt(sorted, p)
	o.tails[name] = t
	o.metrics[name] = t.Value
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runConfig) (*outcome, error){
	"cold-2d":      runCold2D,
	"cold-md":      runColdMD,
	"serve-mutate": runServeMutate,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg      runConfig
		traceOn  int
		injectMS float64
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold-2d, cold-md or serve-mutate")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every dataset and mutation is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed phase runs")
	fs.IntVar(&traceOn, "trace", 0, "1 = replay each request through the layers and report per-layer metrics")
	fs.Float64Var(&injectMS, "inject-ms", 0, "fixed delay added to every request in the benchmark's own client (self-test of the bounds)")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/perfbench", "directory for scratch data, spans and result files")
	fs.StringVar(&cfg.out, "out", "", "result file (default: <dir>/results/<workload>-seed<seed>-trace<trace>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want cold-2d, cold-md or serve-mutate)", cfg.workload)
	}
	if cfg.seconds <= 0 || traceOn < 0 || traceOn > 1 || injectMS < 0 {
		return errors.New("-seconds must be positive, -trace 0 or 1, -inject-ms not negative")
	}
	cfg.traced = traceOn == 1
	cfg.inject = time.Duration(injectMS * float64(time.Millisecond))
	if err := os.MkdirAll(filepath.Join(cfg.dir, "results"), 0o755); err != nil {
		return err
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traceOn))
	}

	out, err := drive(&cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	sum := summary{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, d.name)
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if sum.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, v := range out.violations {
		fmt.Fprintln(stdout, "violation:", v)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	env := currentEnv(&cfg)
	if f, ok := out.params["fsync"].(string); ok {
		env.Fsync = f
	}
	rf := resultFile{
		Env:        env,
		Workload:   cfg.workload,
		Params:     out.params,
		Summary:    sum,
		Tails:      out.tails,
		Counts:     out.counts,
		Answers:    out.answers,
		LatencyMS:  out.latencyMS,
		Violations: out.violations,
		Notes:      out.notes,
	}
	if err := writeJSONFile(cfg.out, rf); err != nil {
		return err
	}
	printTails(stdout, out.tails)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is what a result depends on besides the code: a comparison
// refuses two results whose environments (commit aside) or parameters
// differ.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Fsync      string  `json:"fsync"`
	Traced     bool    `json:"traced"`
	InjectMS   float64 `json:"inject_ms"`
}

// resultFile is the record one run leaves in the result directory.
type resultFile struct {
	Env        environment         `json:"env"`
	Workload   string              `json:"workload"`
	Params     map[string]any      `json:"params"`
	Summary    summary             `json:"summary"`
	Tails      map[string]tailStat `json:"tails"`
	Counts     map[string]int      `json:"counts"`
	Answers    map[string][]int    `json:"answers,omitempty"`
	LatencyMS  map[string]float64  `json:"latency_ms,omitempty"`
	Violations []string            `json:"violations,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
}

func currentEnv(cfg *runConfig) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Fsync:      "none",
		Traced:     cfg.traced,
		InjectMS:   float64(cfg.inject) / float64(time.Millisecond),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTails states, for every tail metric, which percentile it is and
// how many samples it rests on.
func printTails(w io.Writer, tails map[string]tailStat) {
	names := make([]string, 0, len(tails))
	for n := range tails {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := tails[n]
		fmt.Fprintf(w, "tail %s = p%g of %d samples (%d beyond)\n", n, t.Percentile, t.Samples, t.Beyond)
	}
}
