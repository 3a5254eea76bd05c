package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at about 1 % scale, untraced and traced, and
// checks that the oracles pass and the output has the promised shape, so the
// benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four serving stacks")
	}
	// Every phase must see a few rounds: the timed phase is two (before and
	// after the heap reading) and the first round of each is in no sample.
	seconds := 0.5
	if raceEnabled {
		seconds = 4 // the instrumented stack is several times slower
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: w.Name, Seed: 7, Seconds: seconds, Trace: trace, Scale: 0.01, SetupReps: 1})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			for _, o := range res.Oracles {
				if !o.OK {
					t.Errorf("%s (trace %v): oracle %s failed: %s", w.Name, trace, o.Name, o.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d operations failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics reported, spec has %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (trace %v): metric %s = %+v (reported %v)", w.Name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				if n := res.Metrics["trace.nest_errors"].Value; n != 0 {
					t.Errorf("%s: %v spans do not nest within their parent", w.Name, n)
				}
				// Differentiation: the tier's own layers read 0 everywhere
				// else, and its self times are real on the tier.
				tier := w.Name == "shard_tier"
				for _, d := range perLayer {
					if v := res.Metrics[d.Name].Value; strings.HasPrefix(d.Name, "shard.") && !tier && v != 0 {
						t.Errorf("%s: %s = %v; shard.* must be 0 off the tier", w.Name, d.Name, v)
					}
				}
				for _, name := range []string{"shard.ring_lookup_ns", "shard.gateway_task_self_us", "shard.gateway_update_self_us",
					"shard.exchange_ms", "shard.leader_fold_ms", "shard.fold_wait_ms", "shard.partial_wire_bytes_per_fold", "shard.tier_folds"} {
					if v := res.Metrics[name].Value; tier && v <= 0 {
						t.Errorf("shard_tier: %s = %v", name, v)
					}
				}
				if got := res.Metrics["aggregator.trimmed_reduce_ms"].Value != 0; got != (w.Name == "defended_rounds") {
					t.Errorf("%s: aggregator.trimmed_reduce_ms = %v", w.Name, res.Metrics["aggregator.trimmed_reduce_ms"].Value)
				}
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the compiled-in tables and
// BENCHMARK.json from drifting apart, and checks the file's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the spec", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: file %+v, spec %s", i, file.Workloads[i], w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the spec", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: file %+v, spec %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || d.Unit == "" || len(d.Unit) > 16 || seen[d.Name] {
				t.Errorf("%s: bad or repeated name/unit %q/%q", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != lower && d.Better != higher {
				t.Errorf("%s: %s has direction %q", kind, d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound > 0.25):
				t.Errorf("%s: %s bound: file %v, spec %v", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound", kind, d.Name)
			}
			if !bounded && d.Moves == "" {
				t.Errorf("%s: %s does not say what it moves", kind, d.Name)
			}
			for i, b := range d.Bounds {
				// No workload's bound is looser than the file's; a per-layer
				// metric has none.
				if bounded && (b <= 0 || b > d.Bound) || !bounded && b != 0 {
					t.Errorf("%s: %s has bound %v on %s", kind, d.Name, b, workloads[i].Name)
				}
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := endToEnd[0]
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("first end-to-end metric is %+v, want setup_s", setup)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 22, 2, 37, 4, 7, 29, 11, 16}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}

// TestCompare checks the three verdicts of bench -compare on made-up runs,
// and that files it cannot compare are errors.
func TestCompare(t *testing.T) {
	// Five runs of one workload: every end-to-end metric reads 100 except
	// those in over, which take the run's value from the given series.
	mk := func(workload string, seconds float64, over map[string][]float64) *resultsFile {
		f := &resultsFile{}
		for i := 0; i < 5; i++ {
			r := &runResult{Workload: workload, Seed: 1, Seconds: seconds, Attempted: 100, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metricValue{100, d.Unit}
			}
			for name, xs := range over {
				r.Metrics[name] = metricValue{xs[i], "x"}
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultsFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flapping := []float64{10, 18, 10, 18, 10}
	a := write("a.json", mk("bulk_rounds", 20, map[string][]float64{
		"requests_per_s": {1000, 1010, 990, 1005, 995}, "live_heap_mib": {50, 50.2, 49.9, 50.1, 50}, "round_p50_ms": flapping}))
	b := write("b.json", mk("bulk_rounds", 20, map[string][]float64{
		"requests_per_s": {700, 705, 695, 702, 698}, "live_heap_mib": {50.5, 50.4, 50.6, 50.5, 50.5}, "round_p50_ms": flapping}))
	var out bytes.Buffer
	v, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v != (verdicts{worse: 1, unresolved: 1}) {
		t.Errorf("verdicts %+v, want one worse (a 30 %% throughput drop) and one unresolved", v)
	}
	for metric, verdict := range map[string]string{"requests_per_s": "worse", "live_heap_mib": "ok", "round_p50_ms": "unresolved", "failed_share": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row for %s in:\n%s", verdict, metric, out.String())
		}
	}

	short := mk("bulk_rounds", 10, nil)
	missing := mk("bulk_rounds", 20, nil)
	delete(missing.Runs[0].Metrics, "updates_per_s")
	for name, f := range map[string]*resultsFile{
		"another run length":  short,
		"a metric missing":    {Runs: missing.Runs[:1]},
		"a workload missing":  mk("shard_tier", 20, nil),
		"only traced runs":    {Runs: []*runResult{{Workload: "bulk_rounds", Trace: true}}},
		"two seeds in a file": {Runs: append(mk("bulk_rounds", 20, nil).Runs, &runResult{Workload: "bulk_rounds", Seed: 2, Seconds: 20})},
	} {
		if _, err := compareFiles(io.Discard, a, write("bad.json", f)); err == nil {
			t.Errorf("%s: compared without an error", name)
		}
	}
}
