package fedsim

import (
	"math/rand"
	"testing"
	"time"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/coord"
	"flint/internal/device"
	"flint/internal/model"
	"flint/internal/network"
	"flint/internal/tensor"
)

// TestCommitMatchesServer: one simulator aggregation and one sync commit
// of the live coordinator — same model kind and seed (so the same v1
// params), the same 16 dense deltas and weights, the same aggregation and
// DP configuration — publish bit-identical params and account the same ε.
// The simulator commits through the server's screen → reduce → DP stages.
func TestCommitMatchesServer(t *testing.T) {
	const n, seed = 16, 3
	m, err := model.New(model.KindA, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	updates := make([]aggregator.Update, n)
	for i := range updates {
		scale := 0.01
		if i%7 == 3 {
			scale = 1 // boosted 100×: the norm screen's catch
		}
		delta := tensor.NewVector(m.NumParams())
		for j := range delta {
			delta[j] = rng.NormFloat64() * scale
		}
		updates[i] = aggregator.Update{ClientID: int64(i + 1), Delta: delta, Weight: float64(1 + i%5)}
	}
	dp := aggregator.DPConfig{Epsilon: 8, ClipNorm: 0.05, Seed: 77}
	for _, tc := range []struct {
		name string
		agg  aggregator.AggregationConfig
	}{
		{"fedavg+dp", aggregator.AggregationConfig{}},
		{"trimmed-mean+screen+dp", aggregator.AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.2, ScreenMedianFactor: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simParams, simEps := simCommit(t, seed, tc.agg, dp, updates)
			liveParams, liveEps := serverCommit(t, seed, tc.agg, dp, updates)
			for i := range simParams {
				if simParams[i] != liveParams[i] {
					t.Fatalf("params[%d]: simulator %v, server %v", i, simParams[i], liveParams[i])
				}
			}
			if simEps != liveEps || simEps <= 0 {
				t.Fatalf("ε spent: simulator %v, server %v", simEps, liveEps)
			}
			moved := false
			for i, p := range m.Params() {
				moved = moved || simParams[i] != p
			}
			if !moved {
				t.Fatal("the commit left the v1 params unchanged")
			}
		})
	}
}

// simCommit runs one sim.aggregate over the updates from the seeded v1
// params and returns the published params and the accountant's ε.
func simCommit(t *testing.T, seed int64, agg aggregator.AggregationConfig, dp aggregator.DPConfig, updates []aggregator.Update) (tensor.Vector, float64) {
	t.Helper()
	times, err := device.NewTimeDistribution(model.KindA, device.BenchPool())
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(Config{
		Mode: Sync, ModelKind: model.KindA, Seed: seed,
		LocalEpochs: 1, BatchSize: 1, Schedule: model.ConstantLR(0.1),
		CohortSize: len(updates), OverCommit: 1, RoundDeadlineSec: 60,
		MaxRounds: 1, Executors: 1, Aggregation: agg, DP: dp,
	}, &Environment{
		Shards:      NewPartitionProvider(nil),
		Trace:       availability.BuildTrace([]availability.Session{{ClientID: 1, Start: 0, End: 60}}),
		Times:       times,
		Bandwidth:   network.Default,
		UpdateBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.close()
	s.buffer = append([]aggregator.Update(nil), updates...)
	if err := s.aggregate(); err != nil {
		t.Fatal(err)
	}
	return s.global, s.dp.Report().EpsilonSpent
}

// serverCommit drives one sync round of a live coordinator with the
// updates, in order, and returns the published v2 params and ε.
func serverCommit(t *testing.T, seed int64, agg aggregator.AggregationConfig, dp aggregator.DPConfig, updates []aggregator.Update) (tensor.Vector, float64) {
	t.Helper()
	c, err := coord.New(coord.Config{
		Mode: coord.ModeSync, ModelKind: model.KindA, Seed: seed,
		TargetUpdates: len(updates), Quorum: len(updates), OverCommit: 1,
		RoundDeadline: time.Minute, QueueDepth: len(updates),
		Aggregation: agg, DP: dp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, u := range updates {
		c.CheckIn(coord.DeviceInfo{ID: u.ClientID})
		task, err := c.RequestTask(u.ClientID)
		if err != nil {
			t.Fatalf("device %d: %v", u.ClientID, err)
		}
		if err := c.SubmitUpdate(coord.Submission{
			DeviceID: u.ClientID, RoundID: task.RoundID, BaseVersion: task.BaseVersion,
			Weight: u.Weight, Delta: u.Delta,
		}); err != nil {
			t.Fatalf("device %d: %v", u.ClientID, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); c.Version() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the round never committed")
		}
	}
	published, err := c.Store().Get(c.Config().ModelName, 2)
	if err != nil {
		t.Fatal(err)
	}
	return published.Params(), c.Status().Privacy.EpsilonSpent
}
