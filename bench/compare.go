package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"flint/internal/metrics"
)

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects a file's values per (workload, end-to-end metric) over its
// untraced runs, plus each workload's failed share.
type series struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int64
	// seed and seconds are those of every run in the file.
	seed    int64
	seconds float64
}

func seriesOf(path string) (series, error) {
	s := series{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	f, err := loadResults(path)
	if err != nil {
		return s, err
	}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if len(s.values) == 0 {
			s.seed, s.seconds = r.Seed, r.Seconds
		} else if r.Seed != s.seed || r.Seconds != s.seconds {
			return s, fmt.Errorf("%s mixes runs of seed %d, %g s and seed %d, %g s", path, s.seed, s.seconds, r.Seed, r.Seconds)
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	if len(s.values) == 0 {
		return s, fmt.Errorf("%s has no untraced run", path)
	}
	return s, nil
}

// verdicts counts the rows of a comparison that are not "ok".
type verdicts struct{ worse, unresolved int }

// compareFiles applies the spec's per-workload bounds to two sets of runs, a
// the parent and b the change, and prints one row per (workload, end-to-end
// metric): "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's quartile spread is wider than the bound
// (the runs cannot tell), else "ok"; and one row per workload for the share
// of operations that failed, "worse" when b's is larger. The two sets must
// be of the same seed and run length and hold the same workloads, each with
// every end-to-end metric: anything else is an error, not a silent pass.
func compareFiles(w io.Writer, pathA, pathB string) (v verdicts, err error) {
	a, err := seriesOf(pathA)
	if err != nil {
		return v, err
	}
	b, err := seriesOf(pathB)
	if err != nil {
		return v, err
	}
	if a.seed != b.seed || a.seconds != b.seconds {
		return v, fmt.Errorf("%s is seed %d, %g s and %s is seed %d, %g s: not comparable", pathA, a.seed, a.seconds, pathB, b.seed, b.seconds)
	}
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a.median", "b.median", "change", "spread", "bound", "verdict")
	for i, wl := range workloads {
		va, vb := a.values[wl.Name], b.values[wl.Name]
		if va == nil && vb == nil {
			continue
		}
		if va == nil || vb == nil {
			return v, fmt.Errorf("only one of %s and %s has runs of %s", pathA, pathB, wl.Name)
		}
		for _, d := range endToEnd {
			xa, xb := va[d.Name], vb[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return v, fmt.Errorf("%s: %s is missing from %s or %s", wl.Name, d.Name, pathA, pathB)
			}
			ma, mb := metrics.MedianOf(xa), metrics.MedianOf(xb)
			// change > 0 means b is worse.
			change := ratio(mb-ma, ma)
			if d.Better == higher {
				change = -change
			}
			bound := d.Bounds[i]
			spread := max(quartileSpread(xa), quartileSpread(xb))
			verdict := "ok"
			switch {
			case spread > bound:
				verdict = "unresolved"
				v.unresolved++
			case change > bound:
				verdict = "worse"
				v.worse++
			}
			fmt.Fprintf(w, "%-16s %-22s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*change, 100*spread, 100*bound, verdict)
		}
		sa := ratio(float64(a.failed[wl.Name]), float64(a.attempted[wl.Name]))
		sb := ratio(float64(b.failed[wl.Name]), float64(b.attempted[wl.Name]))
		verdict := "ok"
		if sb > sa {
			verdict = "worse"
			v.worse++
		}
		fmt.Fprintf(w, "%-16s %-22s %12.6g %12.6g %41s\n", wl.Name, "failed_share", sa, sb, verdict)
	}
	return v, nil
}
