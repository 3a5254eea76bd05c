// Command bench is the serving-path benchmark: it boots the real serving
// stack in-process behind loopback HTTP listeners, drives it with a
// deterministic closed loop of two clients, prints every metric by name with
// its unit, and checks that the stack's outputs are correct. README.md says
// why each workload and metric exists.
//
//	go run ./bench -workload all -seed 1 -out results.json
//	go run ./bench -workload bulk_rounds -seed 1 -trace 1
//	go run ./bench -compare a.json b.json
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// resultsFile is what -out writes and -compare reads: every run of one
// invocation.
type resultsFile struct {
	Seed int64        `json:"seed"`
	Runs []*runResult `json:"runs"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated workload: the only input")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := flag.String("out", "", "write every run's full result to this JSON file")
	runs := flag.Int("runs", 1, "repeat each workload this many times")
	traceOut := flag.String("trace-out", "", "traced run: write the spans as trace-event JSON to this file")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		v, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		// 0: every row ok; 1: some row worse; 3: none worse, but some row
		// unresolved (2 is an error, as everywhere in this command).
		switch {
		case v.worse > 0:
			os.Exit(1)
		case v.unresolved > 0:
			os.Exit(3)
		}
		return
	}

	// Two cores, pinned: the two clients and the server share them, and the
	// numbers are comparable across machines with more.
	runtime.GOMAXPROCS(2)
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	file := resultsFile{Seed: *seed}
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(runConfig{
				Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
				Scale: 1, SetupReps: 9, TraceOut: *traceOut,
			})
			if err != nil {
				fatal(err)
			}
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			report(res)
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints a run for a reader, then the one-line JSON result the
// benchmark contract asks for (the last line of standard output).
func report(r *runResult) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# %s seed=%d seconds=%g %s num_cpu=%d gomaxprocs=%d\n", r.Workload, r.Seed, r.Seconds, mode, r.NumCPU, r.MaxProcs)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-38s %14.6g %s\n", name, m.Value, m.Unit)
	}
	names = names[:0]
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  samples:")
	for _, name := range names {
		fmt.Printf(" %s=%d", name, r.Samples[name])
	}
	fmt.Printf("\n  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, o := range r.Oracles {
		verdict := "ok  "
		if !o.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  oracle %s %-16s %s\n", verdict, o.Name, o.Detail)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
