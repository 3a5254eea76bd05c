package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"flint/internal/metrics"
)

// runConfig is one benchmark run. Seed is the only input the generated
// workload depends on; Scale shrinks fleet sizes for the smoke test.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Scale     float64
	SetupReps int
	TraceOut  string
}

// scaled shrinks a full-size count by the run's scale, never below min.
func (c runConfig) scaled(full, min int) int {
	n := int(float64(full) * c.Scale)
	if n < min {
		n = min
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// oracle is one correctness check of a run's outputs.
type oracle struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func check(name string, ok bool, format string, args ...any) oracle {
	return oracle{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	NumCPU    int                    `json:"num_cpu"`
	MaxProcs  int                    `json:"gomaxprocs"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples states how many samples stand behind each timing.
	Samples map[string]int `json:"samples"`
	Oracles []oracle       `json:"oracles"`
}

// env is one workload's booted serving stack plus its load generator.
type env interface {
	// warmup drives untimed rounds until caches, the delta ring and the
	// scheduler's census are filled.
	warmup() error
	// drive runs the closed loop and ends on a whole round or step: after n
	// rounds (tier generations, steps per client) when n > 0, else at the
	// deadline.
	drive(n int, deadline time.Time) error
	// take returns what the clients measured since the last take and resets
	// them.
	take() taken
	// counters sums the serving counters of every coordinator and tier part.
	counters() map[string]int64
	// verify checks the run's outputs; it runs once, after the last drive.
	verify() []oracle
	// replay feeds the run's recorded inputs into each layer's public
	// functions and returns per-layer metrics by name.
	replay() (map[string]float64, error)
	close()
}

// taken is what the load generator measured over one phase.
type taken struct {
	m tally
	// waited is the time clients spent waiting for a commit to become
	// visible: the program's time, not the generator's.
	waited  time.Duration
	clients int
	rounds  []lat
	commits []lat
}

// phase is one measured interval of a run.
type phase struct {
	taken
	wall     time.Duration
	counters map[string]int64 // serving counters, as deltas over the phase
	cpu      time.Duration
	alloc    uint64
	gcPause  time.Duration
	gcCycles uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// add appends to p what was measured over q, the interval after it.
func (p *phase) add(q phase) {
	p.m.add(&q.m)
	p.waited += q.waited
	p.rounds = append(p.rounds, q.rounds...)
	p.commits = append(p.commits, q.commits...)
	p.wall += q.wall
	for k, v := range q.counters {
		p.counters[k] += v
	}
	p.cpu += q.cpu
	p.alloc += q.alloc
	p.gcPause += q.gcPause
	p.gcCycles += q.gcCycles
}

// measure drives the stack for n rounds when n > 0, else for d, and returns
// what that interval measured.
func measure(e env, n int, d time.Duration) (phase, error) {
	var ms0, ms1 runtime.MemStats
	c0 := e.counters()
	e.take()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := e.drive(n, t0.Add(d))
	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	p.taken = e.take()
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.counters = e.counters()
	for k, v := range c0 {
		p.counters[k] -= v
	}
	return p, err
}

// liveHeapMiB collects twice (the first collection only moves sync.Pool
// contents, payload buffers and scratch vectors, to the victim cache) and
// returns what is still allocated.
func liveHeapMiB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (p phase) requestsPerSec() float64 { return float64(p.m.requests) / p.wall.Seconds() }

// runWorkload executes one run: set-up (several times, for a steady
// setup_s), warm-up, the timed phase, the oracles, and in a traced run a
// second, traced phase plus the per-layer replay.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := findWorkload(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
	}
	var t *tracer
	if cfg.Trace {
		t = newTracer()
	}
	// setup_s is the median of SetupReps set-ups, torn down in between:
	// half of them before the run and half after it, because a process's
	// first second (threads not yet spread over the cores, a cold heap) is
	// not like the rest. A traced run does not report it and sets up once.
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	setups := make([]float64, 0, reps)
	setUp := func() (env, error) {
		runtime.GC()
		t0 := time.Now()
		e, err := w.new(cfg, t)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return e, nil
	}
	var e env
	for i := 0; i < max(1, reps/2); i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	if err := e.warmup(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", cfg.Workload, err)
	}

	timed := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		// The traced run splits its time: an untraced half as the reference
		// for trace.overhead_share and the process counters, then a traced
		// half for the spans.
		timed /= 2
	}
	runtime.GC()
	var main, traced phase
	var heapMiB float64
	var err error
	if cfg.Trace {
		if main, err = measure(e, 0, timed); err == nil {
			t.on.Store(true)
			traced, err = measure(e, 0, timed)
			t.on.Store(false)
		}
	} else if main, err = measure(e, cfg.scaled(w.heapAt, 1), 0); err == nil {
		// live_heap_mib is read a frozen number of rounds into the timed
		// phase, not at its end: what a faster program retains after more
		// rounds in the same time is not a memory regression. The rest of
		// the phase follows; the reading itself is outside the measured time.
		heapMiB = liveHeapMiB()
		var rest phase
		rest, err = measure(e, 0, timed-main.wall)
		main.add(rest)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: timed phase: %w", cfg.Workload, err)
	}

	res.Oracles = e.verify()
	res.Correct = true
	for _, o := range res.Oracles {
		res.Correct = res.Correct && o.OK
	}
	res.Attempted = main.m.attempted + traced.m.attempted
	res.Failed = main.m.failed + traced.m.failed
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: nothing attempted", cfg.Workload)
	}

	if !cfg.Trace {
		e.close()
		e = nil
		for len(setups) < reps {
			again, err := setUp()
			if err != nil {
				return nil, err
			}
			again.close()
		}
		endToEndMetrics(res, main, metrics.MedianOf(setups), heapMiB)
		return res, nil
	}
	replayed, err := e.replay()
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", cfg.Workload, err)
	}
	perLayerMetrics(res, main, traced, t.analyse(), replayed)
	if cfg.TraceOut != "" {
		if err := t.writeTraceEvents(cfg.TraceOut, 200_000); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics fills the end-to-end metrics from the untraced phase.
func endToEndMetrics(r *runResult, p phase, setupS, heapMiB float64) {
	set := func(name string, v float64) { r.set(endToEnd, name, v) }
	accepted := float64(p.counters["update_accepted"])
	set("setup_s", setupS)
	set("requests_per_s", p.requestsPerSec())
	set("updates_per_s", accepted/p.wall.Seconds())
	set("round_p50_ms", quantileMS(p.rounds, 0.50))
	set("down_bytes_per_update", ratio(float64(p.m.recv), accepted))
	set("up_bytes_per_update", ratio(float64(p.m.sent), accepted))
	set("live_heap_mib", heapMiB)
	r.Samples["rounds"] = len(p.rounds)
	r.Samples["checkins"] = len(p.m.lats[opCheckin])
	r.Samples["tasks"] = len(p.m.lats[opTask])
	r.Samples["updates"] = len(p.m.lats[opUpdate])
	r.Samples["updates_accepted"] = int(accepted)
}

// perLayerMetrics fills every per-layer metric: in-situ spans from the
// traced phase, exact counts and process counters from the untraced phase,
// and the replayed layer timings. A layer that does not run reads 0.
func perLayerMetrics(r *runResult, p, traced phase, sp spanStats, replayed map[string]float64) {
	for _, d := range perLayer {
		r.Metrics[d.Name] = metricValue{Value: replayed[d.Name], Unit: d.Unit}
	}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	c := func(name string) float64 { return float64(p.counters[name]) }
	us := func(ns float64) float64 { return ns / 1e3 }

	// Client span minus outermost handler span = net/http + loopback.
	set("http.checkin_overhead_us", us(sp.self[layerClient][opCheckin]))
	set("http.task_overhead_us", us(sp.self[layerClient][opTask]))
	set("http.update_overhead_us", us(sp.self[layerClient][opUpdate]))
	for op, name := range map[int]string{opCheckin: "checkin", opTask: "task", opUpdate: "update"} {
		set("http."+name+"_p50_ms", quantileMS(p.m.lats[op], 0.50))
		set("http."+name+"_p99_ms", quantileMS(p.m.lats[op], 0.99))
	}
	// The innermost handler span around coord's own server: the shard's on
	// the tier, else the outermost one (on ctrl_storm that includes tenant
	// routing, which the bench cannot wrap beneath).
	inner := layerOuter
	if sp.count[layerShard][opTask] > 0 {
		inner = layerShard
		set("shard.gateway_checkin_self_us", us(sp.self[layerOuter][opCheckin]))
		set("shard.gateway_task_self_us", us(sp.self[layerOuter][opTask]))
		set("shard.gateway_update_self_us", us(sp.self[layerOuter][opUpdate]))
		set("shard.exchange_ms", sp.total[layerExchange][opPartial]/1e6)
	}
	set("coord.task_handler_us", us(sp.total[inner][opTask]))
	set("coord.update_handler_us", us(sp.total[inner][opUpdate]))
	set("trace.nest_errors", float64(sp.nestErrors))
	set("trace.overhead_share", 1-ratio(traced.requestsPerSec(), p.requestsPerSec()))
	for l := 0; l < numLayers; l++ {
		for o := 0; o < numOps; o++ {
			if n := sp.count[l][o]; n > 0 {
				r.Samples["spans."+layerNames[l]+"."+opNames[o]] = n
			}
		}
	}

	commits := c("rounds_committed")
	tasks := c("task_assigned") + c("task_denied_round") + c("task_denied_device") + c("task_denied_deadline")
	set("tenant.auth_rejected", c("tenant.auth_rejected_token"))
	set("coord.task_notask_share", ratio(tasks-c("task_assigned"), tasks))
	commitMS := quantileMS(p.commits, 0.50)
	set("coord.round_p95_ms", quantileMS(p.rounds, 0.95))
	set("coord.commit_p50_ms", commitMS)
	set("coord.commit_p95_ms", quantileMS(p.commits, 0.95))
	set("coord.task_delta_share", ratio(c("task_sent_delta"), c("task_sent_binary")))
	set("coord.delta_cache_hit_ratio", ratio(c("delta_cache_hits"), c("delta_cache_hits")+c("delta_cache_misses")))
	set("coord.delta_pre_encoded_per_commit", ratio(c("delta_pre_encoded"), commits))
	set("coord.delta_base_aged_share", ratio(c("delta_base_aged"), c("task_sent_binary")))
	set("coord.update_shed", c("update_rejected_busy"))
	set("coord.update_rejected_late", c("update_rejected_late"))
	set("coord.rounds_abandoned", c("rounds_abandoned"))
	set("transport.cohort_lowbw_share", ratio(c("task_cohort_lowbw"), c("task_cohort_lowbw")+c("task_cohort_default")))
	set("transport.fallback_f32", c("transport_fallback_f32"))
	set("sched.rebuilds", c("sched_rebuilds"))
	set("sched.task_denied_deadline", c("task_denied_deadline"))
	set("aggregator.screened_per_round", ratio(c("updates_screened_norm"), commits))
	set("shard.tier_folds", c("tier_folds"))
	set("shard.exchange_retries", c("partial_exchange_retries"))
	set("shard.install_noop_share", ratio(c("global_install_noop"), c("global_install_noop")+c("global_installs")))
	set("shard.partial_wire_bytes_per_fold", ratio(c("tier_partial_wire_bytes"), c("tier_folds")))

	accepted := c("update_accepted")
	set("process.cpu_ms_per_update", ratio(float64(p.cpu)/1e6, accepted))
	set("process.alloc_kib_per_update", ratio(float64(p.alloc)/1024, accepted))
	set("process.gc_pause_ms_total", float64(p.gcPause)/1e6)
	set("process.gc_cycles", float64(p.gcCycles))
	clientWall := float64(p.wall) * float64(p.clients)
	set("gen.self_share", ratio(clientWall-float64(p.m.busy)-float64(p.waited), clientWall))

	// What the blocking path leaves once the replayed layers are taken out.
	// The replay runs alone and cold; where it takes longer than the commit
	// it explains (shard_tier, by about a tenth), the layers account for all
	// of it.
	set("coord.commit_other_ms", max(0, commitMS-replayed["commit.replayed_ms"]))
	set("aggregator.codec_commit_share", min(1, ratio(replayed["commit.aggregator_codec_ms"], commitMS)))
	r.Samples["commits"] = len(p.commits)
	r.Samples["updates_accepted"] = int(accepted)
}
