package service

import (
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file holds the metrics surfaces to the signals registry they are
// rendered from: the JSON /v1/stats snapshot and the Prometheus and
// OpenMetrics /v1/metrics expositions carry the same numbers, each from
// exactly one entry. It also checks the exposition is well-formed per the
// text format (0.0.4) strictly enough that a real scraper would ingest it.

// promSample is one parsed sample line.
type promSample struct {
	labels map[string]string
	value  float64
}

// promFamily is one HELP/TYPE block with its samples, keyed by the full
// sample name (family, family_bucket, family_sum, family_count).
type promFamily struct {
	help    string
	typ     string
	samples map[string][]promSample
}

// parsePromText is a strict parser for the subset of the Prometheus text
// exposition format the daemon emits. It fails the test on structural
// violations a lenient parser would paper over: samples before their
// TYPE, TYPE without HELP, duplicate families, malformed values,
// non-cumulative histogram buckets, or a missing +Inf bucket.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	var cur *promFamily
	var curName string
	var pendingHelp, pendingHelpName string

	sampleFamily := func(sampleName string) (string, bool) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sampleName, suffix)
			if base != sampleName {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					return base, true
				}
			}
		}
		_, ok := families[sampleName]
		return sampleName, ok
	}

	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue // only the trailing newline produces this
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			pendingHelp, pendingHelpName = help, name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", lineNo, typ)
			}
			if pendingHelpName != name {
				t.Fatalf("line %d: TYPE %s not directly preceded by its HELP (saw HELP for %q)", lineNo, name, pendingHelpName)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate family %s", lineNo, name)
			}
			cur = &promFamily{help: pendingHelp, typ: typ, samples: make(map[string][]promSample)}
			curName = name
			families[name] = cur
			pendingHelp, pendingHelpName = "", ""
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment: %q", lineNo, line)
		default:
			name, labels, value := parsePromSample(t, lineNo, line)
			fam, ok := sampleFamily(name)
			if !ok {
				t.Fatalf("line %d: sample %s before any TYPE declaration", lineNo, name)
			}
			if fam != curName {
				t.Fatalf("line %d: sample %s inside family %s block — families must be contiguous", lineNo, name, curName)
			}
			cur.samples[name] = append(cur.samples[name], promSample{labels: labels, value: value})
		}
	}

	for name, f := range families {
		checkFamilyShape(t, name, f)
	}
	return families
}

// parsePromSample splits `name{k="v",...} value` (labels optional).
func parsePromSample(t *testing.T, lineNo int, line string) (string, map[string]string, float64) {
	t.Helper()
	name := line
	labels := map[string]string{}
	if open := strings.IndexByte(line, '{'); open >= 0 {
		name = line[:open]
		closeIdx := strings.IndexByte(line, '}')
		if closeIdx < open {
			t.Fatalf("line %d: unbalanced label braces: %q", lineNo, line)
		}
		for _, pair := range strings.Split(line[open+1:closeIdx], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("line %d: malformed label pair %q", lineNo, pair)
			}
			unq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("line %d: label value not quoted: %q", lineNo, pair)
			}
			labels[k] = unq
		}
		line = line[closeIdx+1:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value: %q", lineNo, line)
		}
		name = line[:sp]
		line = line[sp:]
	}
	for _, r := range name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, name)
		}
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value: %v", lineNo, err)
	}
	return name, labels, value
}

// checkFamilyShape enforces per-type sample structure: scalars carry
// exactly one unlabeled sample; histograms carry cumulative buckets
// ending in +Inf whose terminal count matches _count, per label set.
func checkFamilyShape(t *testing.T, name string, f *promFamily) {
	t.Helper()
	switch f.typ {
	case "counter", "gauge":
		ss := f.samples[name]
		if len(ss) != 1 || len(f.samples) != 1 {
			t.Fatalf("family %s: want exactly one sample, got %v", name, f.samples)
		}
		if len(ss[0].labels) != 0 {
			t.Fatalf("family %s: scalar sample unexpectedly labeled: %v", name, ss[0].labels)
		}
		if f.typ == "counter" && ss[0].value < 0 {
			t.Fatalf("family %s: negative counter %g", name, ss[0].value)
		}
	case "histogram":
		// Group buckets by their non-le label set.
		series := make(map[string][]promSample)
		var label string
		for _, s := range f.samples[name+"_bucket"] {
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("family %s: bucket without le label", name)
			}
			_ = le
			key := ""
			for k, v := range s.labels {
				if k != "le" {
					key = k + "=" + v
					label = k
				}
			}
			series[key] = append(series[key], s)
		}
		for key, buckets := range series {
			last := -1.0
			cum := int64(-1)
			for i, b := range buckets {
				le := b.labels["le"]
				if i == len(buckets)-1 {
					if le != "+Inf" {
						t.Fatalf("family %s{%s}: last bucket le=%q, want +Inf", name, key, le)
					}
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("family %s{%s}: bad le %q", name, key, le)
					}
					if bound <= last {
						t.Fatalf("family %s{%s}: le bounds not increasing at %q", name, key, le)
					}
					last = bound
				}
				if int64(b.value) < cum {
					t.Fatalf("family %s{%s}: buckets not cumulative at le=%q", name, key, le)
				}
				cum = int64(b.value)
			}
			// _count must equal the +Inf bucket for the same label set.
			for _, c := range f.samples[name+"_count"] {
				if label != "" && c.labels[label] != strings.TrimPrefix(key, label+"=") {
					continue
				}
				if int64(c.value) != cum {
					t.Fatalf("family %s{%s}: _count=%g != +Inf bucket %d", name, key, c.value, cum)
				}
			}
		}
	}
}

// statPath is the /v1/stats JSON path of the Snapshot field sig fills,
// found by matching the address and type stat returns against every
// leaf field of a Snapshot.
func statPath(t *testing.T, sig *signal) string {
	t.Helper()
	var s Snapshot
	target := reflect.ValueOf(sig.stat(&s))
	var walk func(v reflect.Value, prefix string) string
	walk = func(v reflect.Value, prefix string) string {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			path := prefix + strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0]
			if f.Kind() == reflect.Struct {
				if p := walk(f, path+"."); p != "" {
					return p
				}
			} else if f.Addr().Pointer() == target.Pointer() && f.Addr().Type() == target.Type() {
				return path
			}
		}
		return ""
	}
	p := walk(reflect.ValueOf(&s).Elem(), "")
	if p == "" {
		t.Fatalf("signal %q (%s): stat does not point at a Snapshot leaf", sig.name, sig.help)
	}
	return p
}

// TestSignalTable holds the registry to its own rules, with no traffic:
// one source per entry, unique names and paths, Prometheus naming
// conventions, and every stored slot read by exactly one entry.
func TestSignalTable(t *testing.T) {
	names := make(map[string]bool)
	paths := make(map[string]bool)
	slots := make(map[slot]bool)
	derivedSeen := false
	for i := range signals {
		sig := &signals[i]
		path := statPath(t, sig)
		if paths[path] {
			t.Errorf("%s: two entries fill /v1/stats path %q", sig.name, path)
		}
		paths[path] = true
		if sig.help == "" {
			t.Errorf("%s (%s): empty HELP", sig.name, path)
		}
		sources := 0
		for _, set := range []bool{sig.hists != nil, sig.read != nil, sig.derive != nil} {
			if set {
				sources++
			}
		}
		if sources > 1 {
			t.Errorf("%s (%s): %d value sources, want one", sig.name, path, sources)
		}
		if sig.derive != nil {
			derivedSeen = true
			if sig.name != "" || sig.typ != "" || sig.label != "" {
				t.Errorf("derived %s declares a Prometheus family %q", path, sig.name)
			}
			continue
		}
		if derivedSeen {
			t.Errorf("%s follows a derived entry: derived values read the fields filled before them", sig.name)
		}
		if !strings.HasPrefix(sig.name, "rrrd_") {
			t.Errorf("family %q lacks the rrrd_ prefix", sig.name)
		}
		if names[sig.name] {
			t.Errorf("family %q declared twice", sig.name)
		}
		names[sig.name] = true
		if (sig.typ == "counter") != strings.HasSuffix(sig.name, "_total") {
			t.Errorf("%s: a %s; only counters, and all of them, end in _total", sig.name, sig.typ)
		}
		switch sig.stat(&Snapshot{}).(type) {
		case *map[string]HistogramSnapshot:
			if sig.typ != "histogram" || sig.hists == nil || sig.label == "" {
				t.Errorf("%s fills a histogram map but is a %s with label %q", sig.name, sig.typ, sig.label)
			}
		case *int64, *float64:
			if (sig.typ != "counter" && sig.typ != "gauge") || sig.hists != nil || sig.label != "" {
				t.Errorf("%s fills a scalar but is a %s with label %q", sig.name, sig.typ, sig.label)
			}
		}
		if sig.stored() {
			if _, ok := sig.stat(&Snapshot{}).(*int64); !ok {
				t.Errorf("%s: stored slots are integers, but it fills %s", sig.name, path)
			}
			if slots[sig.src] {
				t.Errorf("%s: slot %d is read by two entries", sig.name, sig.src)
			}
			slots[sig.src] = true
		}
	}
	if len(slots) != int(numSlots) {
		t.Errorf("%d of %d stored slots are read by an entry", len(slots), numSlots)
	}
}

// statsLeafPaths flattens the /v1/stats JSON object into dotted leaf
// paths, stopping at the dynamic-keyed maps of histogram signals.
func statsLeafPaths(prefix string, v any, byPath map[string]*signal, out *[]string) {
	obj, ok := v.(map[string]any)
	if !ok {
		*out = append(*out, prefix)
		return
	}
	for k, child := range obj {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		if sig := byPath[p]; sig != nil && sig.hists != nil {
			*out = append(*out, p)
			continue
		}
		statsLeafPaths(p, child, byPath, out)
	}
}

// TestPrometheusExpositionMatchesStats holds the two HTTP surfaces to
// the registry: every /v1/stats leaf is filled by exactly one entry,
// every /v1/metrics family comes from exactly one entry, and values that
// cannot move between the two reads agree.
func TestPrometheusExpositionMatchesStats(t *testing.T) {
	ts, _ := newTestServer(t)
	defer ts.Close()

	// Drive enough traffic that the dynamic families (per-algorithm and
	// per-phase histograms) have series: one cold solve (miss + local
	// trace + phases) and one warm hit.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/representative?dataset=flights&k=10")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	families := parsePromText(t, readAll(t, resp))

	var snap map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &snap); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}

	byPath := make(map[string]*signal, len(signals))
	byName := make(map[string]*signal, len(signals))
	for i := range signals {
		sig := &signals[i]
		byPath[statPath(t, sig)] = sig
		if sig.derive == nil {
			byName[sig.name] = sig
		}
	}
	var leaves []string
	statsLeafPaths("", snap, byPath, &leaves)
	if len(leaves) != len(byPath) {
		t.Errorf("/v1/stats has %d leaves, the registry fills %d", len(leaves), len(byPath))
	}
	for _, leaf := range leaves {
		sig, ok := byPath[leaf]
		switch {
		case !ok:
			t.Errorf("/v1/stats leaf %q is filled by no signals entry", leaf)
		case sig.derive == nil && families[sig.name] == nil:
			t.Errorf("/v1/stats leaf %q belongs to %s, which /v1/metrics does not emit", leaf, sig.name)
		}
	}
	for fam := range families {
		if byName[fam] == nil {
			t.Errorf("/v1/metrics family %s comes from no signals entry", fam)
		}
	}

	// Stored slots and histograms move only on events, and none happen
	// between the two reads: their values must agree exactly.
	for i := range signals {
		sig := &signals[i]
		path := statPath(t, sig)
		switch {
		case sig.stored():
			want := statsLeafValue(t, snap, path)
			if got := families[sig.name].samples[sig.name][0].value; got != want {
				t.Errorf("%s: /v1/metrics says %g, /v1/stats %s says %g", sig.name, got, path, want)
			}
		case sig.hists != nil:
			counts := make(map[string]float64)
			for _, c := range families[sig.name].samples[sig.name+"_count"] {
				counts[c.labels[sig.label]] = c.value
			}
			series, _ := snap[path].(map[string]any)
			if len(series) != len(counts) {
				t.Errorf("%s: %d series on /v1/metrics, %d in /v1/stats %s", sig.name, len(counts), len(series), path)
			}
			for key := range series {
				if want := statsLeafValue(t, snap, path+"."+key+".count"); counts[key] != want {
					t.Errorf("%s{%s=%q}: _count %g, /v1/stats count %g", sig.name, sig.label, key, counts[key], want)
				}
			}
		}
	}

	// The activity above must actually show up, or the value checks
	// compared a wall of zeros.
	if v := statsLeafValue(t, snap, "cache_hits"); v < 1 {
		t.Errorf("expected at least one cache hit, got %g", v)
	}
	if v := statsLeafValue(t, snap, "cache_misses"); v < 1 {
		t.Errorf("expected at least one cache miss, got %g", v)
	}
	phases := families["rrrd_solve_phase_seconds"]
	if len(phases.samples["rrrd_solve_phase_seconds_count"]) == 0 {
		t.Error("cold solve produced no rrrd_solve_phase_seconds series — phase sink disconnected?")
	}
}

// exemplarRE matches the OpenMetrics exemplar suffix the daemon emits on
// histogram bucket lines: `# {trace_id="<32 hex>"} value timestamp`.
var exemplarRE = regexp.MustCompile(` # \{trace_id="([0-9a-f]{32})"\} ([0-9.eE+-]+) [0-9.]+$`)

// TestOpenMetricsMatchesClassic holds the OpenMetrics rendering to the
// classic one family-by-family: the formats differ only where the specs
// force them to (counter metadata names, exemplars, the # EOF
// terminator). Both come from one emitter, so a divergence here means a
// format-conditional crept into the wrong branch.
func TestOpenMetricsMatchesClassic(t *testing.T) {
	ts, _ := newTestServer(t)
	defer ts.Close()

	// One traced cold solve, so the histograms have series and at least
	// one bucket carries an exemplar with a known trace ID.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/representative?dataset=flights&k=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced solve: status %d", resp.StatusCode)
	}

	classicResp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	classic := readAll(t, classicResp)
	omResp, err := http.Get(ts.URL + "/v1/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := omResp.Header.Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
		t.Errorf("openmetrics Content-Type = %q", ct)
	}
	om := readAll(t, omResp)

	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("openmetrics exposition does not end with # EOF")
	}
	if strings.Contains(classic, " # {") {
		t.Error("classic exposition carries exemplars — they are OpenMetrics-only")
	}

	// typeLines maps family name → declared type from # TYPE lines.
	typeLines := func(text string) map[string]string {
		out := make(map[string]string)
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				out[name] = typ
			}
		}
		return out
	}
	classicTypes, omTypes := typeLines(classic), typeLines(om)
	if len(classicTypes) != len(omTypes) {
		t.Errorf("family counts differ: classic %d, openmetrics %d", len(classicTypes), len(omTypes))
	}
	for fam, typ := range classicTypes {
		omFam := fam
		if typ == "counter" {
			omFam = strings.TrimSuffix(fam, "_total")
		}
		if got, ok := omTypes[omFam]; !ok || got != typ {
			t.Errorf("classic family %s (%s) has no openmetrics twin %s (got %q)", fam, typ, omFam, got)
		}
	}

	// Sample lines (metric name + labels + value) must be identical once
	// exemplars are stripped — counters keep their _total sample names in
	// both formats, so only time-varying values may differ. Compare the
	// name+labels part of every line; values for stable counters were
	// already held equal to /v1/stats by the sibling test.
	sampleKeys := func(text string) map[string]bool {
		out := make(map[string]bool)
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			line = exemplarRE.ReplaceAllString(line, " <exemplar>")
			// Strip the value: the key is everything up to the last space.
			if i := strings.LastIndexByte(strings.TrimSuffix(line, " <exemplar>"), ' '); i > 0 {
				out[strings.TrimSuffix(line, " <exemplar>")[:i]] = true
			}
		}
		return out
	}
	classicKeys, omKeys := sampleKeys(classic), sampleKeys(om)
	for k := range classicKeys {
		if !omKeys[k] {
			t.Errorf("classic sample %q missing from openmetrics", k)
		}
	}
	for k := range omKeys {
		if !classicKeys[k] {
			t.Errorf("openmetrics sample %q missing from classic", k)
		}
	}

	// The traced solve's exemplar is present, carries the propagated
	// trace ID, and sits on a bucket whose bound admits its value.
	wantID := strings.Split(testTraceparent, "-")[1]
	found := false
	for _, line := range strings.Split(om, "\n") {
		m := exemplarRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		found = true
		if m[1] != wantID {
			t.Errorf("exemplar trace_id = %s, want %s (line %q)", m[1], wantID, line)
		}
		if !strings.Contains(line, "_bucket{") {
			t.Errorf("exemplar on a non-bucket line: %q", line)
		}
		val, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("exemplar value %q: %v", m[2], err)
		}
		if le := extractLabel(line, "le"); le != "+Inf" {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("le %q: %v", le, err)
			}
			if val > bound {
				t.Errorf("exemplar value %g exceeds its bucket bound le=%g: %q", val, bound, line)
			}
		}
	}
	if !found {
		t.Error("traced solve left no exemplar in the openmetrics exposition")
	}

	// Unknown formats are a client error, not a silent default.
	badResp, err := http.Get(ts.URL + "/v1/metrics?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=bogus: status %d, want 400", badResp.StatusCode)
	}
}

// extractLabel pulls one label's value out of a sample line.
func extractLabel(line, name string) string {
	i := strings.Index(line, name+`="`)
	if i < 0 {
		return ""
	}
	rest := line[i+len(name)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// statsLeafValue walks a dotted path into the decoded stats object.
func statsLeafValue(t *testing.T, snap map[string]any, path string) float64 {
	t.Helper()
	var v any = snap
	for _, part := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("stats path %q: %v is not an object", path, v)
		}
		v, ok = obj[part]
		if !ok {
			t.Fatalf("stats path %q: key %q missing", path, part)
		}
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("stats path %q: leaf %v is not a number", path, v)
	}
	return f
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
