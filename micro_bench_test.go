// Micro-benchmarks and ablation benches: per-model training throughput,
// aggregation cost, partitioning layout, and the design-choice ablations
// DESIGN.md §5 calls out.
package flint_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/fedsim"
	"flint/internal/model"
	"flint/internal/partition"
	"flint/internal/report"
	"flint/internal/sched"
	"flint/internal/tensor"
)

// ------------------------------------------------- per-model training cost

func benchmarkTrainStep(b *testing.B, kind model.Kind) {
	m, err := model.New(kind, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := model.InputSpecFor(kind)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := data.Dummy(spec, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(ds.Examples[i%ds.Len()])
	}
}

func BenchmarkTrainStepModelA(b *testing.B) { benchmarkTrainStep(b, model.KindA) }
func BenchmarkTrainStepModelB(b *testing.B) { benchmarkTrainStep(b, model.KindB) }
func BenchmarkTrainStepModelC(b *testing.B) { benchmarkTrainStep(b, model.KindC) }
func BenchmarkTrainStepModelD(b *testing.B) { benchmarkTrainStep(b, model.KindD) }
func BenchmarkTrainStepModelE(b *testing.B) { benchmarkTrainStep(b, model.KindE) }

func benchmarkPredict(b *testing.B, kind model.Kind) {
	m, err := model.New(kind, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := model.InputSpecFor(kind)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := data.Dummy(spec, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(ds.Examples[i%ds.Len()])
	}
}

func BenchmarkPredictModelA(b *testing.B) { benchmarkPredict(b, model.KindA) }
func BenchmarkPredictModelB(b *testing.B) { benchmarkPredict(b, model.KindB) }
func BenchmarkPredictModelE(b *testing.B) { benchmarkPredict(b, model.KindE) }

// ----------------------------------------------------- aggregation kernels

func makeUpdates(n, dim int) []aggregator.Update {
	rng := rand.New(rand.NewSource(7))
	ups := make([]aggregator.Update, n)
	for i := range ups {
		d := tensor.NewVector(dim)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		ups[i] = aggregator.Update{ClientID: int64(i), Delta: d, Weight: 1, Staleness: i % 5}
	}
	return ups
}

// wireUpdates re-encodes dense updates under scheme s as payload-backed
// updates, the form the serving path reduces.
func wireUpdates(b *testing.B, dense []aggregator.Update, s codec.Scheme) []aggregator.Update {
	ups := make([]aggregator.Update, len(dense))
	for i, u := range dense {
		blob, err := codec.Encode(u.Delta, s)
		if err != nil {
			b.Fatal(err)
		}
		p, err := codec.ParsePayload(blob)
		if err != nil {
			b.Fatal(err)
		}
		ups[i] = aggregator.Update{ClientID: u.ClientID, Payload: p, Weight: u.Weight, Staleness: u.Staleness}
	}
	return ups
}

// benchmarkAggregate times one sequential strategy pass over ups on the
// 189k-param model.
func benchmarkAggregate(b *testing.B, s aggregator.Strategy, ups []aggregator.Update) {
	global := tensor.NewVector(189_039)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Aggregate(global, ups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateFedAvg prices the FedAvg reduce on the 189k-param
// model: dense deltas (the simulator's form) and q8 wire payloads (the
// serving uplink's form; the flat commit reduces 16 of them on
// bulk_rounds).
func BenchmarkAggregateFedAvg(b *testing.B) {
	dense := makeUpdates(32, 189_039)
	q8 := wireUpdates(b, dense, codec.Q8)
	b.Run("dense", func(b *testing.B) { benchmarkAggregate(b, aggregator.FedAvg{}, dense[:16]) })
	b.Run("q8/n=16", func(b *testing.B) { benchmarkAggregate(b, aggregator.FedAvg{}, q8[:16]) })
	b.Run("q8/n=32", func(b *testing.B) { benchmarkAggregate(b, aggregator.FedAvg{}, q8) })
}

// BenchmarkAggregateFedBuff prices the staleness-weighted reduce: dense
// deltas, and the shard tier's leader fold — one raw64 partial from each
// of 4 shards, one group pass of the codec kernel.
func BenchmarkAggregateFedBuff(b *testing.B) {
	dense := makeUpdates(16, 189_039)
	f := aggregator.FedBuff{ServerLR: 1, Alpha: 0.5}
	b.Run("dense", func(b *testing.B) { benchmarkAggregate(b, f, dense) })
	b.Run("raw64/n=4", func(b *testing.B) { benchmarkAggregate(b, f, wireUpdates(b, dense[:4], codec.RawF64)) })
}

// BenchmarkParallelAggregate is the commit pipeline's stage-1 kernel at
// fleet scale — 256 updates × the 189k-param model — through the sharded
// parallel reducer. A sequential FedAvg reference is timed in setup and
// reported as the speedup metric (the acceptance bar is ≥ 2x on a
// multi-core runner); the parallel result is bit-identical to the
// sequential one, so the comparison is purely about wall-clock.
func BenchmarkParallelAggregate(b *testing.B) {
	const dim, n = 189_039, 256
	ups := makeUpdates(n, dim)
	global := tensor.NewVector(dim)
	seq := aggregator.FedAvg{}
	par := aggregator.Parallel{Inner: seq}

	// Sequential reference timing (a few folds, averaged).
	const refIters = 3
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		if err := seq.Aggregate(global, ups); err != nil {
			b.Fatal(err)
		}
	}
	seqNs := float64(time.Since(t0).Nanoseconds()) / refIters

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := par.Aggregate(global, ups); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(seqNs/parNs, "speedup")
	b.ReportMetric(seqNs, "seq_ns/op")
}

// BenchmarkRobustReduce prices the robust range kernels as the defended
// commit runs them — the sharded reducer with the fused non-finite screen,
// over q8 wire payloads of the 189k-param model — on a grid that puts
// points on both sides of the kernels' trim-count crossover: trimmed-mean
// at n/k = 13/2 (the serving benchmark's defended round), 32/6, 64/12 and
// 64/25, and the coordinate median at n = 13 and 33. Reports ns per
// column; B/op is the steady-state allocation (the tile scratch is pooled).
func BenchmarkRobustReduce(b *testing.B) {
	const dim = 189_039
	grid := []struct {
		name  string
		n     int
		strat aggregator.Strategy
	}{
		{"trimmed/n=13/k=2", 13, aggregator.TrimmedMean{TrimFrac: 2.5 / 13}},
		{"trimmed/n=32/k=6", 32, aggregator.TrimmedMean{TrimFrac: 6.5 / 32}},
		{"trimmed/n=64/k=12", 64, aggregator.TrimmedMean{TrimFrac: 12.5 / 64}},
		{"trimmed/n=64/k=25", 64, aggregator.TrimmedMean{TrimFrac: 25.5 / 64}},
		{"median/n=13", 13, aggregator.CoordinateMedian{}},
		{"median/n=33", 33, aggregator.CoordinateMedian{}},
	}
	dense := makeUpdates(64, dim)
	ups := make([]aggregator.Update, len(dense))
	for i, u := range dense {
		blob, err := codec.Encode(u.Delta, codec.Q8)
		if err != nil {
			b.Fatal(err)
		}
		p, err := codec.ParsePayload(blob)
		if err != nil {
			b.Fatal(err)
		}
		ups[i] = aggregator.Update{ClientID: u.ClientID, Payload: p, Weight: 1}
	}
	for _, g := range grid {
		b.Run(g.name, func(b *testing.B) {
			par := aggregator.Parallel{Inner: g.strat, Screen: true}
			global := tensor.NewVector(dim)
			if err := par.Aggregate(global, ups[:g.n]); err != nil { // warm the scratch pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := par.Aggregate(global, ups[:g.n]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/dim, "ns/column")
		})
	}
}

// ------------------------------------------- tensor codec wire format

// codecBenchVector builds a model-B-sized synthetic update (189k params),
// the dense payload the serving protocol moves per task and per update.
func codecBenchVector() tensor.Vector { return codecBenchVectorDim(189_039) }

func codecBenchVectorDim(dim int) tensor.Vector {
	rng := rand.New(rand.NewSource(13))
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.01
	}
	return v
}

func benchmarkCodecEncode(b *testing.B, v tensor.Vector, s codec.Scheme) {
	blob, err := codec.Encode(v, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(blob)), "payload_bytes")
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(v, s); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkCodecEncodeDims runs the encode at both serving models' sizes:
// model B, where the kernel's per-element cost is the number, and model A
// (1 519 params), where any dim-independent cost would show.
func benchmarkCodecEncodeDims(b *testing.B, s codec.Scheme) {
	for _, dim := range []int{189_039, 1519} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			benchmarkCodecEncode(b, codecBenchVectorDim(dim), s)
		})
	}
}

func BenchmarkCodecEncodeRaw64(b *testing.B) {
	benchmarkCodecEncode(b, codecBenchVector(), codec.RawF64)
}
func BenchmarkCodecEncodeF32(b *testing.B)  { benchmarkCodecEncodeDims(b, codec.F32) }
func BenchmarkCodecEncodeQ8(b *testing.B)   { benchmarkCodecEncodeDims(b, codec.Q8) }
func BenchmarkCodecEncodeTopK(b *testing.B) { benchmarkCodecEncodeDims(b, codec.TopK(0)) }

// BenchmarkCodecEncodeTopKInputs prices the top-k selection on the inputs
// built to defeat it — nothing to split, everything in one bucket, NaNs on
// top — beside the Gaussian it is tuned on. Gaussian, one-binade,
// consecutive and NaN-laced inputs take the one-pass select; all-equal,
// all-zero and low-bits tie at the sample's floor and fall back to the
// whole-vector select, which is O(dim) whatever the distribution. A
// fallback costs the sample's sort and at most one pass more than that
// select alone, so no fallback row may cost much more than it did before
// the one-pass select existed, and no row more than four times the
// Gaussian one (low-bits, the dearest, takes three select scans: ~3×).
func BenchmarkCodecEncodeTopKInputs(b *testing.B) {
	const dim = 189_039
	inputs := []struct {
		name string
		at   func(rng *rand.Rand, i int) float64
	}{
		{"gaussian", func(rng *rand.Rand, i int) float64 { return rng.NormFloat64() * 0.01 }},
		{"all-equal", func(rng *rand.Rand, i int) float64 { return 0.37 * float64(1-2*(i&1)) }},
		{"all-zero", func(rng *rand.Rand, i int) float64 { return 0 }},
		{"one-binade", func(rng *rand.Rand, i int) float64 { return 1 + rng.Float64() }},
		{"low-bits", func(rng *rand.Rand, i int) float64 {
			return math.Float64frombits(math.Float64bits(0.25) | uint64(rng.Intn(5)))
		}},
		{"consecutive", func(rng *rand.Rand, i int) float64 {
			return math.Float64frombits(math.Float64bits(1) + uint64(i*7919%dim))
		}},
		{"nan-laced", func(rng *rand.Rand, i int) float64 {
			if rng.Intn(64) == 0 {
				return math.NaN()
			}
			return rng.NormFloat64() * 0.01
		}},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			v := tensor.NewVector(dim)
			for i := range v {
				v[i] = in.at(rng, i)
			}
			benchmarkCodecEncode(b, v, codec.TopK(0))
		})
	}
}

func benchmarkCodecDecode(b *testing.B, s codec.Scheme) {
	blob, err := codec.Encode(codecBenchVector(), s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeRaw64(b *testing.B) { benchmarkCodecDecode(b, codec.RawF64) }
func BenchmarkCodecDecodeF32(b *testing.B)   { benchmarkCodecDecode(b, codec.F32) }
func BenchmarkCodecDecodeQ8(b *testing.B)    { benchmarkCodecDecode(b, codec.Q8) }

// BenchmarkCodecDeltaBroadcast compares downlink bytes for one round of
// model broadcast: the full f32 vector (what every device got before the
// negotiated transport layer) vs a q8 delta frame against the device's
// last-seen version (what a delta-capable device gets now). The
// downlink_reduction metric is the headline claim: >= 3x on the
// 189k-param model.
func BenchmarkCodecDeltaBroadcast(b *testing.B) {
	base := codecBenchVector()
	// One committed round's movement: a small aggregated step.
	cur := base.Clone()
	step := rand.New(rand.NewSource(17))
	for i := range cur {
		cur[i] += step.NormFloat64() * 0.001
	}
	full, err := codec.Encode(cur, codec.F32)
	if err != nil {
		b.Fatal(err)
	}
	delta, err := codec.EncodeDiff(cur, base, codec.Q8)
	if err != nil {
		b.Fatal(err)
	}
	once("delta-broadcast", func() {
		fmt.Printf("\nDelta broadcast — %d-param model, downlink bytes per task:\n", len(cur))
		fmt.Printf("  %-12s %10d bytes\n", "full f32", len(full))
		fmt.Printf("  %-12s %10d bytes  (%.1fx smaller)\n", "delta q8", len(delta),
			float64(len(full))/float64(len(delta)))
	})
	b.ReportMetric(float64(len(delta)), "delta_bytes")
	b.ReportMetric(float64(len(full)), "full_bytes")
	b.ReportMetric(float64(len(full))/float64(len(delta)), "downlink_reduction")
	b.SetBytes(int64(len(delta)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The server cost, paid once per (base, scheme) by the first
		// requester: the delta frame straight from the two snapshots.
		if _, err := codec.EncodeDiff(cur, base, codec.Q8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecApplyDelta is the device-side cost of folding a delta
// frame into the locally held vector.
func BenchmarkCodecApplyDelta(b *testing.B) {
	base := codecBenchVector()
	diff := base.Clone()
	diff.Scale(0.001)
	blob, err := codec.EncodeDelta(diff, codec.Q8)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.ApplyDelta(base, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecJSONBaseline is the pre-refactor wire path — a JSON
// []float64 body — measured with the same vector so payload_bytes lines
// up against the codec schemes (the ≥4x dense-path reduction claim).
func BenchmarkCodecJSONBaseline(b *testing.B) {
	v := codecBenchVector()
	raw, err := json.Marshal([]float64(v))
	if err != nil {
		b.Fatal(err)
	}
	once("codec-sizes", func() {
		fmt.Printf("\nWire formats — %d-param dense update, bytes on the wire:\n", len(v))
		fmt.Printf("  %-8s %10d bytes\n", "json", len(raw))
		for _, s := range []codec.Scheme{codec.RawF64, codec.F32, codec.Q8, codec.TopK(0)} {
			blob, err := codec.Encode(v, s)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("  %-8s %10d bytes  (%.1fx smaller than json)\n",
				s, len(blob), float64(len(raw))/float64(len(blob)))
		}
	})
	b.ReportMetric(float64(len(raw)), "payload_bytes")
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal([]float64(v)); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------ scheduling plane

// BenchmarkSchedCohortRebuild measures the scheduler's fleet-view
// rebuild — the O(fleet) cohort-map + over-commit + histogram pass the
// watchdog pays every rebuild period — up the census ladder the virtual
// load plane drives: 5k (the goroutine fleet's scale), 100k (the CI
// compressed-time smoke), and 1M (the full vload proof run). The rungs
// pin both the per-device cost and that it stays flat as the census
// grows three orders of magnitude.
func BenchmarkSchedCohortRebuild(b *testing.B) {
	for _, bench := range []struct {
		name string
		n    int
	}{
		{"census=5k", 5_000},
		{"census=100k", 100_000},
		{"census=1m", 1_000_000},
	} {
		b.Run(bench.name, func(b *testing.B) {
			s, err := sched.New(sched.Config{MinSamples: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			devs := make([]sched.DeviceSample, bench.n)
			for i := range devs {
				bps := 1e4 * math.Exp(rng.NormFloat64()*2)
				devs[i] = sched.DeviceSample{
					ID:       int64(i + 1),
					WiFi:     rng.Intn(2) == 0,
					Eligible: rng.Intn(4) > 0,
					Tel: sched.Telemetry{
						DownBps: bps, UpBps: bps * 0.4, TaskSec: 0.5 + rng.Float64(),
						DownSamples: 3, UpSamples: 3, TaskSamples: 3,
					},
				}
			}
			est := map[string]sched.TaskEstimate{
				"default": {DownBytes: 760_000, UpBytes: 190_000},
				"lowbw":   {DownBytes: 48_000, UpBytes: 190_000},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Rebuild(devs, 15*time.Second, est)
			}
			b.ReportMetric(float64(len(devs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mdev/sec")
		})
	}
}

// ------------------------------------------------------ commit pipeline

// TestCommitDeltaScratchAllocs is the snapshot-GC-pressure satellite's
// assertion: with several devices asking each new version for deltas
// from distinct bases, allocation per published version stays bounded —
// the transient per-base diff vectors ride the coordinator's scratch pool
// instead of allocating a fresh full-dim clone each (which at KindB's
// 189k params costs ~1.5 MiB per base per version; with 4 bases that
// pushes a version past the budget).
func TestCommitDeltaScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	c, err := coord.New(coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindB, // 189k params
		Seed:          1,
		TargetUpdates: 1,
		Quorum:        1,
		OverCommit:    8, // holders + driver share each round's budget
		RoundDeadline: time.Hour,
		QueueDepth:    16,
		KeepVersions:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	checkin := func(id int64) {
		c.CheckIn(coord.DeviceInfo{
			ID: id, Model: "Pixel-6", Platform: "Android",
			WiFi: true, BatteryHigh: true, ModernOS: true,
			SessionSec: 3600, Weight: 10,
		})
	}
	driver := int64(99)
	checkin(driver)
	delta := tensor.NewVector(189_039)

	// commit drives one full round through the driver device and waits
	// for the publish. The version counter moves just before the next
	// round opens on it: wait for that round, or the next task request
	// can land on the concluded one and find no task.
	commit := func() {
		want := c.Version() + 1
		task, err := c.RequestTask(driver)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitUpdate(coord.Submission{
			DeviceID: driver, RoundID: task.RoundID,
			BaseVersion: task.BaseVersion, Weight: 1, Delta: delta,
		}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		opened := func() bool {
			r := c.Status().Round
			return r.Phase == coord.PhaseOpen && r.Base >= want
		}
		for c.Version() < want || !opened() {
			if time.Now().After(deadline) {
				t.Fatalf("commit to v%d never happened", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Warm-up: fill the ring past the deepest base the holders ask for.
	const holders = 4
	for i := int64(1); i <= holders; i++ {
		checkin(i)
		commit()
	}

	const commits = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < commits; i++ {
		commit()
		// Holder h still has v−h: four first requests, four lazy encodes.
		v := c.Version()
		for h := 1; h <= holders; h++ {
			task, err := c.RequestTaskWith(int64(h), coord.TaskQuery{Binary: true, BaseVersion: v - h})
			if err != nil || task.DeltaBase != v-h {
				t.Fatalf("holder %d at v%d: delta base %d, err %v", h, v, task.DeltaBase, err)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	perCommit := (m1.TotalAlloc - m0.TotalAlloc) / commits
	// Measured ~9.3 MiB/version with the scratch pool (published clone,
	// serialized snapshot, broadcast blob, four encoded delta frames);
	// each diff allocated fresh would add ~1.5 MiB, ~15 MiB in all. The
	// budget sits between the two.
	const budget = 12 << 20
	if perCommit > budget {
		t.Fatalf("commit pipeline allocates %.2f MiB/commit, budget %.2f MiB — did the delta scratch pool regress?",
			float64(perCommit)/(1<<20), float64(budget)/(1<<20))
	}
	t.Logf("commit pipeline: %.2f MiB allocated per commit (budget %.2f MiB)",
		float64(perCommit)/(1<<20), float64(budget)/(1<<20))
}

// -------------------------------------------------------------- ablations

// BenchmarkAblationOverCommit quantifies the sync-mode trade-off: higher
// over-commitment shortens rounds (less straggler exposure) but wastes work.
func BenchmarkAblationOverCommit(b *testing.B) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale
	scale.MaxRounds = 25
	for i := 0; i < b.N; i++ {
		lines := []string{}
		for _, oc := range []float64{1.0, 1.3, 2.0} {
			env, _, err := core.BuildEnvironment(spec, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.SyncConfig(spec, scale, 1)
			cfg.OverCommit = oc
			cfg.EvalEvery = 0
			rep, err := fedsim.Run(cfg, env)
			if err != nil {
				b.Fatal(err)
			}
			wasted := rep.TotalStragglers + rep.TotalInterrupted
			lines = append(lines, fmt.Sprintf(
				"  over-commit %.1f: %d rounds in %s, wasted tasks %d of %d",
				oc, len(rep.Rounds), report.Dur(rep.FinalVTime), wasted, rep.TotalStarted))
		}
		once("ablation-oc", func() {
			fmt.Printf("\nAblation — sync over-commitment (GFL-style dropout handling):\n")
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationStalenessAlpha sweeps FedBuff's discount exponent.
func BenchmarkAblationStalenessAlpha(b *testing.B) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale
	scale.MaxRounds = 60
	for i := 0; i < b.N; i++ {
		lines := []string{}
		for _, alpha := range []float64{0, 0.5, 2} {
			env, _, err := core.BuildEnvironment(spec, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.AsyncConfig(spec, scale, 1)
			cfg.StalenessAlpha = alpha
			rep, err := fedsim.Run(cfg, env)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, r := range rep.Rounds {
				if r.Evaluated() && r.Metric > best {
					best = r.Metric
				}
			}
			lines = append(lines, fmt.Sprintf("  alpha %.1f: best AUPR %.4f", alpha, best))
		}
		once("ablation-alpha", func() {
			fmt.Printf("\nAblation — FedBuff staleness-discount exponent:\n")
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationPartitionLayout compares partition-per-executor files
// against file-per-client, the §3.4 storage design choice.
func BenchmarkAblationPartitionLayout(b *testing.B) {
	gen, err := data.NewAdsGenerator(data.DefaultAdsConfig(200, 1))
	if err != nil {
		b.Fatal(err)
	}
	shards := gen.GenerateClients(200)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Partition-per-executor: 20 files.
		parts, err := partition.RoundRobin(shards, 20)
		if err != nil {
			b.Fatal(err)
		}
		perExec, err := partition.WriteAll(parts, fmt.Sprintf("%s/exec-%d", dir, i))
		if err != nil {
			b.Fatal(err)
		}
		// File-per-client: 200 files.
		single := make([]*partition.ExecutorPartition, len(shards))
		for j, s := range shards {
			single[j] = &partition.ExecutorPartition{Executor: j, Shards: []data.ClientShard{s}}
		}
		perClient, err := partition.WriteAll(single, fmt.Sprintf("%s/client-%d", dir, i))
		if err != nil {
			b.Fatal(err)
		}
		once("ablation-layout", func() {
			fmt.Printf("\nAblation — storage layout: %d executor files vs %d per-client files "+
				"(namespace growth is the §3.4 concern)\n", len(perExec), len(perClient))
		})
	}
}

// BenchmarkAblationRobustAggregation measures poisoning damage with and
// without the trimmed-mean defense (§3.6 / §4.2).
func BenchmarkAblationRobustAggregation(b *testing.B) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale
	scale.MaxRounds = 40
	adversary := &aggregator.Adversary{Attack: aggregator.SignFlip{Scale: 4}, Fraction: 0.25, Seed: 5}
	for i := 0; i < b.N; i++ {
		lines := []string{}
		for _, mode := range []struct {
			name string
			adv  *aggregator.Adversary
			agg  aggregator.AggregationConfig
		}{
			{"clean", nil, aggregator.AggregationConfig{}},
			{"poisoned", adversary, aggregator.AggregationConfig{}},
			{"poisoned+trimmed-mean", adversary, aggregator.AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.25}},
		} {
			env, _, err := core.BuildEnvironment(spec, scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.AsyncConfig(spec, scale, 1)
			cfg.Adversary = mode.adv
			cfg.Aggregation = mode.agg
			rep, err := fedsim.Run(cfg, env)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, r := range rep.Rounds {
				if r.Evaluated() && r.Metric > best {
					best = r.Metric
				}
			}
			lines = append(lines, fmt.Sprintf("  %-22s best AUPR %.4f", mode.name, best))
		}
		once("ablation-robust", func() {
			fmt.Printf("\nAblation — poisoning (25%% sign-flip) vs robust aggregation:\n")
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkSimulationThroughput measures simulated client tasks per second
// of wall time — §3.4 reports 60k tasks/hour on 20 executors for Task C.
func BenchmarkSimulationThroughput(b *testing.B) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale
	scale.MaxRounds = 50
	env, _, err := core.BuildEnvironment(spec, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		cfg := core.AsyncConfig(spec, scale, int64(i))
		cfg.EvalEvery = 0
		rep, err := fedsim.Run(cfg, env)
		if err != nil {
			b.Fatal(err)
		}
		total += rep.TotalStarted
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tasks/sec")
}
