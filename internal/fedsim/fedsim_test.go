package fedsim

import (
	"math"
	"testing"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/model"
	"flint/internal/network"
)

// testEnv builds a small ads-domain environment shared by the tests.
func testEnv(t *testing.T, clients int, seed int64) *Environment {
	return testEnvWith(t, clients, seed, 3.0)
}

// testEnvWith also controls the session arrival rate: concurrency effects
// (staleness, buffer contention) need dense arrivals at test scale.
func testEnvWith(t *testing.T, clients int, seed int64, sessionsPerDay float64) *Environment {
	t.Helper()
	gen, err := data.NewAdsGenerator(data.DefaultAdsConfig(clients, seed))
	if err != nil {
		t.Fatal(err)
	}
	logCfg := availability.DefaultLogConfig(clients, seed)
	logCfg.Days = 7
	logCfg.SessionsPerDay = sessionsPerDay
	log, err := availability.GenerateLog(logCfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := availability.BuildTrace(log)
	times, err := device.NewTimeDistribution(model.KindB, device.BenchPool())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(model.KindB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Environment{
		Shards:      GeneratorProvider{G: gen},
		Trace:       trace,
		Times:       times,
		Bandwidth:   network.Default,
		EvalSet:     gen.TestSet(1200),
		UpdateBytes: m.Cost().TransferBytes(),
	}
}

func asyncConfig(seed int64) Config {
	return Config{
		Mode:           Async,
		ModelKind:      model.KindB,
		Seed:           seed,
		LocalEpochs:    1,
		BatchSize:      16,
		Schedule:       model.ConstantLR(0.1),
		Concurrency:    24,
		BufferSize:     8,
		MaxStaleness:   6,
		StalenessAlpha: 0.5,
		ServerLR:       1,
		MaxRounds:      12,
		EvalEvery:      4,
		Metric:         model.MetricAUPR,
		Executors:      4,
	}
}

func syncConfig(seed int64) Config {
	return Config{
		Mode:             Sync,
		ModelKind:        model.KindB,
		Seed:             seed,
		LocalEpochs:      1,
		BatchSize:        16,
		Schedule:         model.ConstantLR(0.1),
		CohortSize:       8,
		OverCommit:       1.5,
		RoundDeadlineSec: 600,
		MaxRounds:        10,
		EvalEvery:        5,
		Metric:           model.MetricAUPR,
		Executors:        4,
	}
}

func TestAsyncRunCompletes(t *testing.T) {
	env := testEnv(t, 120, 1)
	rep, err := Run(asyncConfig(2), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 12 {
		t.Fatalf("rounds %d, want 12", len(rep.Rounds))
	}
	if rep.StopReason != "max rounds" {
		t.Fatalf("stop reason %q", rep.StopReason)
	}
	if rep.TotalStarted < rep.TotalSucceeded {
		t.Fatalf("started %d < succeeded %d", rep.TotalStarted, rep.TotalSucceeded)
	}
	if rep.TotalSucceeded < 12*8 {
		t.Fatalf("succeeded %d below aggregated minimum %d", rep.TotalSucceeded, 12*8)
	}
	if rep.TotalComputeSec <= 0 {
		t.Fatal("no client compute accounted")
	}
	// Virtual time must move forward monotonically across rounds.
	for i := 1; i < len(rep.Rounds); i++ {
		if rep.Rounds[i].VTime < rep.Rounds[i-1].VTime {
			t.Fatal("round vtimes must be nondecreasing")
		}
	}
	if rep.FinalVTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if math.IsNaN(rep.FinalMetric) {
		t.Fatal("expected an evaluated metric")
	}
}

func TestAsyncLearns(t *testing.T) {
	env := testEnv(t, 150, 3)
	cfg := asyncConfig(4)
	cfg.MaxRounds = 30
	cfg.EvalEvery = 2
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	_, _, vals := rep.MetricSeries()
	if len(vals) < 3 {
		t.Fatalf("too few eval points: %d", len(vals))
	}
	first, last := vals[0], vals[len(vals)-1]
	if last <= first+0.02 {
		t.Fatalf("AUPR did not improve: %.4f -> %.4f", first, last)
	}
}

func TestSyncRunCompletesWithStragglers(t *testing.T) {
	env := testEnv(t, 120, 5)
	rep, err := Run(syncConfig(6), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 10 {
		t.Fatalf("rounds %d, want 10", len(rep.Rounds))
	}
	// Over-commitment at 1.5x must shed work: stragglers + interrupted +
	// failed > 0 across ten rounds.
	shed := rep.TotalStragglers + rep.TotalInterrupted + rep.TotalFailed
	if shed == 0 {
		t.Fatal("over-committed sync rounds should discard some work")
	}
	if rep.TotalSucceeded != 10*8 {
		t.Fatalf("aggregated %d updates, want exactly %d", rep.TotalSucceeded, 80)
	}
}

func TestDeterminism(t *testing.T) {
	envA := testEnv(t, 100, 7)
	envB := testEnv(t, 100, 7)
	repA, err := Run(asyncConfig(8), envA)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(asyncConfig(8), envB)
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Rounds) != len(repB.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(repA.Rounds), len(repB.Rounds))
	}
	for i := range repA.Rounds {
		a, b := repA.Rounds[i], repB.Rounds[i]
		if a.VTime != b.VTime || a.Started != b.Started || a.Succeeded != b.Succeeded {
			t.Fatalf("round %d diverged: %+v vs %+v", i, a, b)
		}
		am, bm := a.Metric, b.Metric
		if (math.IsNaN(am) != math.IsNaN(bm)) || (!math.IsNaN(am) && am != bm) {
			t.Fatalf("round %d metrics diverged: %v vs %v", i, am, bm)
		}
	}
}

func TestBufferSizeDrivesFillTime(t *testing.T) {
	// Fig 7: larger aggregation buffers take longer to populate.
	env := testEnv(t, 150, 9)
	small := asyncConfig(10)
	small.BufferSize = 4
	small.MaxRounds = 10
	repSmall, err := Run(small, env)
	if err != nil {
		t.Fatal(err)
	}
	envB := testEnv(t, 150, 9)
	big := asyncConfig(10)
	big.BufferSize = 20
	big.MaxRounds = 10
	repBig, err := Run(big, envB)
	if err != nil {
		t.Fatal(err)
	}
	if repBig.MeanBufferFillSec() <= repSmall.MeanBufferFillSec() {
		t.Fatalf("buffer 20 fill %.1fs should exceed buffer 4 fill %.1fs",
			repBig.MeanBufferFillSec(), repSmall.MeanBufferFillSec())
	}
}

func TestStalenessLimitProducesStaleTasks(t *testing.T) {
	// Fig 8: dense arrivals, heavy-tailed task durations and a tight
	// staleness limit waste tasks — slow clients finish many rounds late.
	// A congested network stretches durations (in virtual time) so tasks
	// overlap many aggregations.
	env := testEnvWith(t, 800, 11, 24)
	env.Bandwidth = network.BandwidthModel{MedianMbps: 0.3, Sigma: 1.2, SlowFrac: 0.2, FloorMbps: 0.05}
	cfg := asyncConfig(12)
	cfg.Concurrency = 32
	cfg.BufferSize = 4
	cfg.MaxStaleness = 1
	cfg.MaxRounds = 60
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalStale == 0 {
		t.Fatal("tight staleness limit at high concurrency must discard stale updates")
	}
}

func TestInterruptedTasksAppear(t *testing.T) {
	// Long tasks against short sessions must hit window ends.
	env := testEnv(t, 150, 13)
	cfg := asyncConfig(14)
	cfg.LocalEpochs = 5 // stretch durations past typical sessions
	cfg.MaxRounds = 8
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInterrupted == 0 {
		t.Fatal("expected interrupted tasks with long durations")
	}
}

func TestFailureInjection(t *testing.T) {
	env := testEnv(t, 120, 15)
	cfg := asyncConfig(16)
	cfg.FailureRate = 0.3
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFailed == 0 {
		t.Fatal("30%% failure rate must produce failed tasks")
	}
	frac := float64(rep.TotalFailed) / float64(rep.TotalStarted)
	if frac < 0.1 || frac > 0.5 {
		t.Fatalf("failed fraction %.2f far from injected 0.3", frac)
	}
}

func TestHaltInjection(t *testing.T) {
	env := testEnv(t, 120, 21)
	base := asyncConfig(22)
	base.MaxRounds = 8
	rep, err := Run(base, env)
	if err != nil {
		t.Fatal(err)
	}

	env2 := testEnv(t, 120, 21)
	halted := base
	halted.HaltAtRound = 3
	halted.HaltDurationSec = 4 * 3600
	rep2, err := Run(halted, env2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FinalVTime <= rep.FinalVTime {
		t.Fatalf("outage run (%.0fs) must take longer than healthy run (%.0fs)",
			rep2.FinalVTime, rep.FinalVTime)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Mode: Async, ModelKind: model.KindB},
		{Mode: Sync, ModelKind: model.KindB, CohortSize: 1, OverCommit: 0.5, RoundDeadlineSec: 1},
		{Mode: Async, ModelKind: model.KindB, Concurrency: 1, BufferSize: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d must fail validation", i)
		}
	}
	good := asyncConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// MaxRounds is the one stop rule.
	good.MaxRounds = 0
	if err := good.Validate(); err == nil {
		t.Fatal("a job without MaxRounds must fail")
	}
}

func TestEnvironmentValidation(t *testing.T) {
	env := testEnv(t, 50, 23)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := *env
	broken.Shards = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("missing shards must fail")
	}
	broken2 := *env
	broken2.UpdateBytes = 0
	if err := broken2.Validate(); err == nil {
		t.Fatal("missing update size must fail")
	}
}

func TestPartitionProvider(t *testing.T) {
	gen, err := data.NewAdsGenerator(data.DefaultAdsConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	shards := gen.GenerateClients(10)
	p := NewPartitionProvider(shards)
	if got := p.Shard(3); got.ClientID != 3 || len(got.Examples) == 0 {
		t.Fatalf("provider shard: %+v", got.ClientID)
	}
	if got := p.Shard(99); len(got.Examples) != 0 {
		t.Fatal("unknown client must return empty shard")
	}
}

func TestDPRun(t *testing.T) {
	env := testEnv(t, 100, 25)
	cfg := asyncConfig(26)
	cfg.MaxRounds = 4
	cfg.DP = aggregator.DPConfig{Epsilon: 8, ClipNorm: 1, Seed: 3}
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 4 {
		t.Fatalf("DP run rounds %d", len(rep.Rounds))
	}
}

func TestPoisonWithRobustDefense(t *testing.T) {
	env := testEnv(t, 100, 27)
	cfg := asyncConfig(28)
	cfg.MaxRounds = 5
	cfg.Adversary = &aggregator.Adversary{Attack: aggregator.SignFlip{Scale: 5}, Fraction: 0.2, Seed: 4}
	cfg.Aggregation = aggregator.AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.25}
	rep, err := Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 5 {
		t.Fatalf("robust run rounds %d", len(rep.Rounds))
	}
	if math.IsNaN(rep.FinalMetric) {
		t.Fatal("robust run must still evaluate")
	}
}
