package shard

import (
	"errors"
	"math"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tensor"
)

// testParams is a Params factory over the small KindA model: every job
// name maps to the same architecture/seed, matching the coordinators
// the tests boot.
func testParams(job string) (tensor.Vector, error) {
	m, err := model.New(model.KindA, 7)
	if err != nil {
		return nil, err
	}
	return m.Params(), nil
}

// newShardCoord boots one tier replica: a sync coordinator whose
// commits reduce to partials on the exchange.
func newShardCoord(t *testing.T, ex coord.PartialExchange, id, target int) *coord.Coordinator {
	t.Helper()
	c, err := coord.New(coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          7,
		TargetUpdates: target,
		Quorum:        target,
		OverCommit:    1,
		RoundDeadline: time.Hour,
		Exchange:      ex,
		ShardID:       id,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// checkInFleet registers `n` eligible devices with ids base+1..base+n.
func checkInFleet(t *testing.T, c *coord.Coordinator, base int64, n int) {
	t.Helper()
	for i := int64(1); i <= int64(n); i++ {
		c.CheckIn(coord.DeviceInfo{
			ID: base + i, Model: "Pixel-6", Platform: "Android",
			WiFi: true, BatteryHigh: true, ModernOS: true,
			SessionSec: 3600, Weight: 10,
		})
	}
}

// driveRound pushes one full round through a shard: every device takes
// a task and submits a deterministic delta. It returns once the
// submissions are queued — tier-level progress is the caller's to wait
// on (a shard whose partial lands mid-buffer concludes its round with
// no version advance, so shard Version() is not a round barrier here).
func driveRound(t *testing.T, c *coord.Coordinator, base int64, n int, scale float64) {
	t.Helper()
	for i := int64(1); i <= int64(n); i++ {
		id := base + i
		var task coord.Task
		deadline := time.Now().Add(10 * time.Second)
		for {
			tk, err := c.RequestTask(id)
			if err == nil {
				task = tk
				break
			}
			if !errors.Is(err, coord.ErrNoTask) {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("device %d starved waiting for a task", id)
			}
			time.Sleep(time.Millisecond)
		}
		delta := tensor.NewVector(task.Dim)
		for j := range delta {
			delta[j] = scale * float64((int64(j)+id)%13-6) / 100
		}
		for {
			err := c.SubmitUpdate(coord.Submission{
				DeviceID: id, RoundID: task.RoundID,
				BaseVersion: task.BaseVersion, Weight: 10, Delta: delta,
			})
			if err == nil {
				break
			}
			if !errors.Is(err, coord.ErrBusy) {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("device %d starved submitting", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleShardTierMatchesFlatCommit pins the hierarchical math: a
// one-shard tier with lr=1 and no staleness is FedAvg with an extra
// (lossless) wire hop, so its global must match a flat coordinator fed
// the identical updates to within float round-off of the one extra
// weighted-mean fold.
func TestSingleShardTierMatchesFlatCommit(t *testing.T) {
	const devices = 4
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Ping(0); err != nil {
		t.Fatal(err)
	}
	sharded := newShardCoord(t, leader, 0, devices)
	flat, err := coord.New(coord.Config{
		Mode: coord.ModeSync, ModelKind: model.KindA, Seed: 7,
		TargetUpdates: devices, Quorum: devices, OverCommit: 1,
		RoundDeadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	checkInFleet(t, sharded, 0, devices)
	checkInFleet(t, flat, 0, devices)
	driveRound(t, sharded, 0, devices, 1)
	driveRound(t, flat, 0, devices, 1)

	waitFor(t, "tier fold", func() bool { return leader.Version("") >= 2 })
	waitFor(t, "shard install", func() bool { return sharded.Version() >= 2 })
	waitFor(t, "flat commit", func() bool { return flat.Version() >= 2 })

	_, tier := leader.Global("")
	flatTask, err := flat.RequestTask(1)
	if err != nil {
		t.Fatal(err)
	}
	shardTask, err := sharded.RequestTask(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tier) != len(flatTask.Params) {
		t.Fatalf("dim mismatch: tier %d, flat %d", len(tier), len(flatTask.Params))
	}
	for j := range tier {
		if d := math.Abs(tier[j] - flatTask.Params[j]); d > 1e-9 {
			t.Fatalf("tier/flat diverge at %d: %g vs %g", j, tier[j], flatTask.Params[j])
		}
		// The shard's installed params are the leader's raw64 blob
		// decoded — bit-identical, not merely close.
		if shardTask.Params[j] != tier[j] {
			t.Fatalf("shard/leader params differ at %d: %g vs %g", j, shardTask.Params[j], tier[j])
		}
	}
}

// TestTwoShardTierFoldsAcrossShards runs a 2-shard tier through two
// generations and checks the cross-shard fold: the leader advances one
// version per full buffer, behind shards catch up through install
// blobs, and a mid-buffer partial concludes its round without a version
// advance (the noop path).
func TestTwoShardTierFoldsAcrossShards(t *testing.T) {
	const perShard = 3
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	leader.Ping(1)
	c0 := newShardCoord(t, leader, 0, perShard)
	c1 := newShardCoord(t, leader, 1, perShard)
	checkInFleet(t, c0, 0, perShard)
	checkInFleet(t, c1, 100, perShard)

	// Generation 1: shard 0's partial buffers (noop), shard 1's
	// completes the buffer and folds.
	driveRound(t, c0, 0, perShard, 1)
	waitFor(t, "shard 0 noop conclude", func() bool {
		return c0.Counters().Counter("global_install_noop").Value() == 1
	})
	if v := leader.Version(""); v != 1 {
		t.Fatalf("leader advanced to v%d on a half-full buffer", v)
	}
	driveRound(t, c1, 100, perShard, 2)
	waitFor(t, "generation 1 fold", func() bool { return leader.Version("") == 2 })
	waitFor(t, "shard 1 install", func() bool { return c1.Version() == 2 })

	// Generation 2: shard 0 (still on v1) submits a stale-by-one
	// partial, gets the v2 install immediately, and shard 1 completes
	// the next fold.
	driveRound(t, c0, 0, perShard, 1)
	waitFor(t, "shard 0 catch-up install", func() bool { return c0.Version() == 2 })
	driveRound(t, c1, 100, perShard, 2)
	waitFor(t, "generation 2 fold", func() bool { return leader.Version("") == 3 })

	if got := leader.Counters().Counter("tier_folds").Value(); got != 2 {
		t.Fatalf("tier_folds = %d, want 2", got)
	}
	if got := leader.Counters().Counter("tier_partials_received").Value(); got != 4 {
		t.Fatalf("tier_partials_received = %d, want 4", got)
	}
	st := leader.Status()
	if !st.Healthy || st.Shards != 2 {
		t.Fatalf("tier status unhealthy or wrong width: %+v", st)
	}
	if st.Jobs[""].Version != 3 {
		t.Fatalf("status job version = %d, want 3", st.Jobs[""].Version)
	}
}

// TestShardLossHaltsTierUntilRecovery is the §3.4 drill: a shard whose
// heartbeat stops halts the whole tier — partials are rejected, parked
// rounds retry, no global progress — and the tier resumes exactly where
// it parked once the lost shard pings again.
func TestShardLossHaltsTierUntilRecovery(t *testing.T) {
	const perShard = 2
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: 250 * time.Millisecond, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	hb0 := StartHeartbeat(leader, 0, 50*time.Millisecond)
	defer hb0.Stop()
	hb1 := StartHeartbeat(leader, 1, 50*time.Millisecond)
	waitFor(t, "tier healthy", leader.Healthy)

	c0 := newShardCoord(t, leader, 0, perShard)
	c1 := newShardCoord(t, leader, 1, perShard)
	checkInFleet(t, c0, 0, perShard)
	checkInFleet(t, c1, 100, perShard)

	// A full healthy generation first.
	driveRound(t, c0, 0, perShard, 1)
	driveRound(t, c1, 100, perShard, 1)
	waitFor(t, "healthy generation", func() bool { return leader.Version("") == 2 })

	// Shard 1 dies: its heartbeat stops, the grace window lapses, and
	// the tier halts.
	hb1.Stop()
	waitFor(t, "tier halt", func() bool { return !leader.Healthy() })

	// Shard 0's next round parks: its partial bounces off the halt gate
	// and retries. The round must NOT abort and the tier must not move.
	driveRound(t, c0, 0, perShard, 1)
	waitFor(t, "halted retries", func() bool {
		return c0.Counters().Counter("partial_exchange_halted").Value() > 0
	})
	if v := leader.Version(""); v != 2 {
		t.Fatalf("tier advanced to v%d while halted", v)
	}
	// Nothing is admitted while unhealthy: every retry bounced off the
	// gate, none reached the fold buffer.
	if got := leader.Counters().Counter("tier_partials_received").Value(); got != 2 {
		t.Fatalf("tier_partials_received = %d while halted, want 2", got)
	}
	if got := leader.Counters().Counter("tier_halts").Value(); got != 1 {
		t.Fatalf("tier_halts = %d, want 1 (one membership-loss edge)", got)
	}

	// Shard 1 recovers: membership heals, the parked partial lands on a
	// retry, and shard 1's round completes the fold.
	hb1 = StartHeartbeat(leader, 1, 50*time.Millisecond)
	defer hb1.Stop()
	waitFor(t, "tier recovery", leader.Healthy)
	waitFor(t, "parked partial lands", func() bool {
		return leader.Counters().Counter("tier_partials_received").Value() == 3
	})
	waitFor(t, "shard 0 catch-up install", func() bool { return c0.Version() == 2 })
	driveRound(t, c1, 100, perShard, 1)
	waitFor(t, "post-recovery fold", func() bool { return leader.Version("") == 3 })
	waitFor(t, "shard 1 post-recovery install", func() bool { return c1.Version() == 3 })
	// The parked partial drained exactly once: its retries after recovery
	// did not land it twice, so the second fold saw one partial per shard.
	if got := leader.Counters().Counter("tier_partials_received").Value(); got != 4 {
		t.Fatalf("tier_partials_received = %d after recovery, want 4", got)
	}
	if got := leader.Counters().Counter("tier_folds").Value(); got != 2 {
		t.Fatalf("tier_folds = %d after recovery, want 2", got)
	}
}

// TestLeaderRejectsBadPartials covers the exchange's validation edges:
// out-of-tier shard ids, undecodable blobs, and dimension mismatches
// must be rejected without poisoning the tier.
func TestLeaderRejectsBadPartials(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	if _, err := leader.SubmitPartial(coord.PartialCommit{ShardID: 5}); err == nil {
		t.Fatal("want error for out-of-tier shard id")
	}
	if _, err := leader.SubmitPartial(coord.PartialCommit{ShardID: 0, Blob: []byte("junk")}); err == nil {
		t.Fatal("want error for undecodable blob")
	}
	if leader.Counters().Counter("tier_bad_partials").Value() != 2 {
		t.Fatal("bad partials not counted")
	}
	if v := leader.Version(""); v != 1 {
		t.Fatalf("bad partials moved the tier to v%d", v)
	}
}
