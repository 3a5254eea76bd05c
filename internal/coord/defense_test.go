package coord

import (
	"math"
	"strings"
	"testing"
	"time"

	"flint/internal/tensor"
)

// stubExchange satisfies PartialExchange for configuration tests; the
// configs pairing it with robust reducers or DP must be rejected before
// it is ever called.
type stubExchange struct{}

func (stubExchange) SubmitPartial(PartialCommit) (GlobalInstall, error) {
	return GlobalInstall{}, nil
}

func TestConfigRobustAndDPValidation(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		cfg := syncTestConfig()
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"robust async", mk(func(c *Config) {
			c.Mode, c.MaxInflight = ModeAsync, 8
			c.Aggregation.Strategy = "trimmed-mean"
		}), "requires sync mode"},
		{"median async", mk(func(c *Config) {
			c.Mode, c.MaxInflight = ModeAsync, 8
			c.Aggregation.Strategy = "coordinate-median"
		}), "requires sync mode"},
		{"unknown strategy", mk(func(c *Config) {
			c.Aggregation.Strategy = "krum"
		}), "unknown aggregation strategy"},
		{"fedbuff sync", mk(func(c *Config) {
			c.Aggregation.Strategy = "fedbuff"
		}), "requires async mode"},
		{"robust sharded", mk(func(c *Config) {
			c.Aggregation.Strategy = "trimmed-mean"
			c.Exchange = stubExchange{}
		}), "unavailable in hierarchical"},
		{"dp sharded", mk(func(c *Config) {
			c.DP.Epsilon = 8
			c.Exchange = stubExchange{}
		}), "unavailable in hierarchical"},
		{"trim frac range", mk(func(c *Config) {
			c.Aggregation.Strategy = "trimmed-mean"
			c.Aggregation.TrimFrac = 0.5
		}), "outside [0, 0.5)"},
		{"trim frac without trimmed-mean", mk(func(c *Config) {
			c.Aggregation.TrimFrac = 0.1
		}), "not trimmed-mean"},
		{"negative screen norm", mk(func(c *Config) {
			c.Aggregation.ScreenMaxNorm = -1
		}), "negative screen max norm"},
		{"median factor below 1", mk(func(c *Config) {
			c.Aggregation.ScreenMedianFactor = 0.5
		}), "below 1"},
		{"negative epsilon", mk(func(c *Config) {
			c.DP.Epsilon = -1
		}), "negative dp epsilon"},
		{"negative clip", mk(func(c *Config) {
			c.DP.ClipNorm = -2
		}), "negative dp clip norm"},
		{"dp delta range", mk(func(c *Config) {
			c.DP.Epsilon, c.DP.Delta = 8, 1.5
		}), "outside (0, 1)"},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: New() err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A bare robust strategy gets the defense defaults: trim fraction,
	// median-factor screen, and — with DP on — δ, clip, and seed.
	cfg := syncTestConfig()
	cfg.Aggregation.Strategy = "trimmed-mean"
	cfg.DP.Epsilon = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := c.Config()
	if got.Aggregation.TrimFrac != 0.1 || got.Aggregation.ScreenMedianFactor != 4 {
		t.Fatalf("robust defaults: %+v", got.Aggregation)
	}
	if got.DP.Delta != 1e-5 || got.DP.ClipNorm != 1 || got.DP.Seed != cfg.Seed {
		t.Fatalf("dp defaults: %+v", got.DP)
	}
	if st := c.Status(); st.Aggregation != "parallel(trimmed-mean)" {
		t.Fatalf("status aggregation = %q", st.Aggregation)
	}
}

func TestDefenseCountersPreRegistered(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Status()
	for _, name := range []string{"updates_screened_norm", "dp_rounds", "round_aggregate_robust_error"} {
		if v, ok := st.Counters[name]; !ok || v != 0 {
			t.Fatalf("counter %q = %d, %v (want pre-registered at 0)", name, v, ok)
		}
	}
}

// TestDPCommitDeterministic: two coordinators with the same DP seed,
// driven through the same round, publish bit-identical noised params —
// the reproducibility contract of the seeded per-version noise stream —
// and both report the privacy spend; a DP-free control publishes
// something else entirely (the noise really landed).
func TestDPCommitDeterministic(t *testing.T) {
	dpCfg := syncTestConfig()
	dpCfg.Aggregation.Strategy = "trimmed-mean"
	dpCfg.DP = DPConfig{Epsilon: 8, ClipNorm: 0.05, Seed: 77}

	commitOnce := func(cfg Config) tensor.Vector {
		t.Helper()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for id := int64(1); id <= 3; id++ {
			task := join(t, c, id)
			delta := tensor.NewVector(task.Dim)
			delta.Fill(0.001 * float64(id))
			if err := c.SubmitUpdate(Submission{
				DeviceID: id, RoundID: task.RoundID, BaseVersion: task.BaseVersion,
				Weight: 10, Delta: delta,
			}); err != nil {
				t.Fatalf("device %d: %v", id, err)
			}
		}
		eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
			"round never committed")
		if cfg.DP.Enabled() {
			st := c.Status()
			if st.Privacy == nil || st.Privacy.DPRounds != 1 || st.Privacy.EpsilonSpent <= 0 {
				t.Fatalf("privacy report after DP commit: %+v", st.Privacy)
			}
			if st.Counters["dp_rounds"] != 1 {
				t.Fatalf("dp_rounds = %d", st.Counters["dp_rounds"])
			}
			if len(st.Recent) == 0 || st.Recent[len(st.Recent)-1].EpsilonSpent <= 0 {
				t.Fatalf("round summary missing epsilon: %+v", st.Recent)
			}
		}
		return join(t, c, 9).Params
	}

	a := commitOnce(dpCfg)
	b := commitOnce(dpCfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed DP commits diverge at [%d]: %v vs %v", i, a[i], b[i])
		}
		if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
			t.Fatalf("DP commit published non-finite param %v", a[i])
		}
	}
	control := commitOnce(syncTestConfig())
	diff := 0.0
	for i := range a {
		diff += math.Abs(a[i] - control[i])
	}
	if diff == 0 {
		t.Fatal("DP commit identical to raw commit: clip+noise never ran")
	}
}

// TestScreenRejectsBoostedUpdate: a sign-flip-boosted update is dropped
// by the pre-reduce norm screen — counted, noted on the round summary,
// and its device's telemetry distrusted — while the round still commits
// from the surviving honest updates.
func TestScreenRejectsBoostedUpdate(t *testing.T) {
	cfg := syncTestConfig()
	cfg.Aggregation.Strategy = "trimmed-mean"
	cfg.Aggregation.ScreenMedianFactor = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := join(t, c, 9).Params.Clone() // v1 params, the diff baseline
	fill := []float64{0.001, 0.001, -0.5}  // device 3 boosted 500× the median norm
	for id := int64(1); id <= 3; id++ {
		task := join(t, c, id)
		delta := tensor.NewVector(task.Dim)
		delta.Fill(fill[id-1])
		if err := c.SubmitUpdate(Submission{
			DeviceID: id, RoundID: task.RoundID, BaseVersion: task.BaseVersion,
			Weight: 10, Delta: delta,
		}); err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"screened round never committed")
	st := c.Status()
	if st.Counters["updates_screened_norm"] != 1 {
		t.Fatalf("updates_screened_norm = %d, want 1", st.Counters["updates_screened_norm"])
	}
	if len(st.Recent) == 0 || st.Recent[len(st.Recent)-1].ScreenedNorm != 1 {
		t.Fatalf("round summary missing screen count: %+v", st.Recent)
	}
	// The published model reflects only the honest updates: every param
	// moved by exactly their trimmed mean (0.001), nowhere near the
	// poisoned magnitude.
	task := join(t, c, 10)
	for i, x := range task.Params {
		if d := x - before[i]; math.Abs(d-0.001) > 1e-9 {
			t.Fatalf("param[%d] moved by %v, want 0.001: poisoned update leaked into the aggregate", i, d)
		}
	}
}

// TestScreenAllRejectedAbortsRound: when the screen empties a round the
// commit aborts with robust-error accounting, nothing publishes, and the
// successor round keeps serving.
func TestScreenAllRejectedAbortsRound(t *testing.T) {
	cfg := syncTestConfig()
	cfg.Aggregation.ScreenMaxNorm = 1e-12
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := int64(1); id <= 3; id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("round_aggregate_robust_error").Value() == 1
	}, "all-screened round was not aborted")
	if c.Version() != 1 {
		t.Fatalf("version = %d, want 1 (all-screened round must not publish)", c.Version())
	}
	if got := c.Counters().Counter("updates_screened_norm").Value(); got != 3 {
		t.Fatalf("updates_screened_norm = %d, want 3", got)
	}
	// The coordinator recovered: a fresh round is serving tasks.
	join(t, c, 4)
}

// TestRegistryNoteScreened: a screened device's telemetry loses its
// sample confidence (so the scheduler re-measures it from scratch) while
// the EWMA estimates survive as priors.
func TestRegistryNoteScreened(t *testing.T) {
	r := NewRegistry(4, time.Minute)
	now := time.Unix(1000, 0)
	r.CheckIn(testInfo(1), now)
	r.Observe(1, TelemetryObservation{UpBytes: 5000, UpDur: time.Second,
		Train: 2 * time.Second}, now)
	if _, tel, _ := r.Snapshot(1); tel.UpSamples == 0 || tel.TaskSamples == 0 {
		t.Fatalf("observation not recorded: %+v", tel)
	}
	r.NoteScreened(1)
	_, tel, ok := r.Snapshot(1)
	if !ok {
		t.Fatal("device vanished")
	}
	if tel.UpSamples != 0 || tel.DownSamples != 0 || tel.TaskSamples != 0 {
		t.Fatalf("screened device keeps sample confidence: %+v", tel)
	}
	if tel.UpBps == 0 || tel.TaskSec == 0 {
		t.Fatalf("distrust erased the EWMA priors: %+v", tel)
	}
	r.NoteScreened(99) // unknown devices are ignored
}
