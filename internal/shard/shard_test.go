package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"flint/internal/codec"
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
// submissions are queued; the round then parks on the exchange until the
// generation folds, so the caller waits on the leader's version and then
// on the shards' Version(), which every shard reaches at the fold.
func driveRound(t *testing.T, c *coord.Coordinator, base int64, n int, scale float64) {
	t.Helper()
	for i := int64(1); i <= int64(n); i++ {
		id := base + i
		task := requestTask(t, c, id)
		deadline := time.Now().Add(10 * time.Second)
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

// requestTask polls until c serves device id a task. A commit or install
// publishes its version before the successor round opens, so a request
// made right after Version() moves can still meet the concluded round.
func requestTask(t *testing.T, c *coord.Coordinator, id int64) coord.Task {
	t.Helper()
	var task coord.Task
	waitFor(t, fmt.Sprintf("a task for device %d", id), func() bool {
		tk, err := c.RequestTask(id)
		if err != nil && !errors.Is(err, coord.ErrNoTask) {
			t.Fatal(err)
		}
		task = tk
		return err == nil
	})
	return task
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

// exchangeTap decorates an in-process leader for the tier tests. It
// records the first submission of every (shard, round), failing the test
// unless it is based on the leader's version, and when drop is set it
// loses the leader's first answer to each shard, as a response lost after
// the leader took the partial.
type exchangeTap struct {
	*Leader
	t    *testing.T
	drop bool

	mu      sync.Mutex
	sent    []coord.PartialCommit
	dropped map[int]bool
}

func (x *exchangeTap) SubmitPartial(pc coord.PartialCommit) (coord.GlobalInstall, error) {
	x.mu.Lock()
	if !slices.ContainsFunc(x.sent, func(p coord.PartialCommit) bool { return p.ShardID == pc.ShardID && p.Round == pc.Round }) {
		if v := x.Version(pc.Job); pc.BaseVersion != v {
			x.t.Errorf("shard %d round %d: partial based on v%d, leader at v%d", pc.ShardID, pc.Round, pc.BaseVersion, v)
		}
		x.sent = append(x.sent, pc)
	}
	x.mu.Unlock()
	inst, err := x.Leader.SubmitPartial(pc)
	x.mu.Lock()
	defer x.mu.Unlock()
	if err == nil && x.drop && !x.dropped[pc.ShardID] {
		x.dropped[pc.ShardID] = true
		return coord.GlobalInstall{}, errors.New("response lost")
	}
	return inst, err
}

// newTier boots a leader of the given width and one coordinator per
// shard, each exchanging through the returned tap and holding devices
// 100*s+1..100*s+perShard.
func newTier(t *testing.T, shards, perShard int, drop bool) (*exchangeTap, []*coord.Coordinator) {
	t.Helper()
	leader, err := NewLeader(LeaderConfig{Shards: shards, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.EnsureJob(""); err != nil {
		t.Fatal(err)
	}
	tap := &exchangeTap{Leader: leader, t: t, drop: drop, dropped: map[int]bool{}}
	cs := make([]*coord.Coordinator, shards)
	for s := range cs {
		leader.Ping(s)
		cs[s] = newShardCoord(t, tap, s, perShard)
		checkInFleet(t, cs[s], int64(100*s), perShard)
	}
	return tap, cs
}

// storedParams reads a coordinator's published params at version v.
func storedParams(t *testing.T, c *coord.Coordinator, v int) tensor.Vector {
	t.Helper()
	m, err := c.Store().Get(c.Config().ModelName, v)
	if err != nil {
		t.Fatal(err)
	}
	return m.Params()
}

// TestSingleShardTierMatchesFlatCommit pins the hierarchical math on
// tiers of 1, 2 and 4 shards: with lr=1 and no staleness, a generation in
// which every shard closes one round is FedAvg over the union cohort plus
// a lossless wire hop, so after each generation the tier's global matches
// a flat coordinator fed the same updates to within float round-off of
// the extra weighted-mean fold. Every shard installs at every fold: after
// each one, each shard serves the leader's version with the leader's
// bits, and the tap checks that each partial is based on that version.
func TestSingleShardTierMatchesFlatCommit(t *testing.T) {
	const perShard, generations = 3, 3
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tap, cs := newTier(t, shards, perShard, false)
			flat, err := coord.New(coord.Config{
				Mode: coord.ModeSync, ModelKind: model.KindA, Seed: 7,
				TargetUpdates: shards * perShard, Quorum: shards * perShard, OverCommit: 1,
				RoundDeadline: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer flat.Close()
			for s := range cs {
				checkInFleet(t, flat, int64(100*s), perShard)
			}
			for v := 2; v < 2+generations; v++ {
				for s, c := range cs {
					driveRound(t, c, int64(100*s), perShard, float64(v))
					driveRound(t, flat, int64(100*s), perShard, float64(v))
				}
				waitFor(t, "tier fold", func() bool { return tap.Version("") == v })
				waitFor(t, "flat commit", func() bool { return flat.Version() == v })
				for s, c := range cs {
					waitFor(t, fmt.Sprintf("shard %d install", s), func() bool { return c.Version() == v })
				}
				lv, tier := tap.Global("")
				if lv != v {
					t.Fatalf("leader at v%d after generation %d", lv, v-1)
				}
				want := storedParams(t, flat, v)
				for j := range tier {
					if d := math.Abs(tier[j] - want[j]); d > 1e-9 {
						t.Fatalf("v%d: tier/flat diverge at %d: %g vs %g", v, j, tier[j], want[j])
					}
				}
				// An installed shard's params are the leader's raw64 blob
				// decoded — bit-identical, not merely close.
				for s, c := range cs {
					for j, p := range storedParams(t, c, v) {
						if math.Float64bits(p) != math.Float64bits(tier[j]) {
							t.Fatalf("v%d: shard %d param %d = %v, leader's %v", v, s, j, p, tier[j])
						}
					}
				}
			}
			if got := tap.Counters().Counter("tier_partials_received").Value(); got != int64(shards*generations) {
				t.Fatalf("tier_partials_received = %d, want %d", got, shards*generations)
			}
		})
	}
}

// TestTwoShardTierFoldsAcrossShards runs a 2-shard tier through two
// generations, the shards submitting in opposite orders: the first
// partial of a generation is held without a version advance on either
// side, the second folds, and both shards install the fold at once.
func TestTwoShardTierFoldsAcrossShards(t *testing.T) {
	const perShard = 3
	tap, cs := newTier(t, 2, perShard, false)
	for gen, order := range [][]int{{0, 1}, {1, 0}} {
		v := gen + 2
		first, second := order[0], order[1]
		driveRound(t, cs[first], int64(100*first), perShard, 1)
		waitFor(t, "first partial held", func() bool {
			return tap.Counters().Counter("tier_partials_received").Value() == int64(2*gen+1)
		})
		if lv, sv := tap.Version(""), cs[first].Version(); lv != v-1 || sv != v-1 {
			t.Fatalf("generation %d: one partial moved the leader to v%d and shard %d to v%d", gen+1, lv, first, sv)
		}
		driveRound(t, cs[second], int64(100*second), perShard, 2)
		waitFor(t, "fold", func() bool { return tap.Version("") == v })
		for s, c := range cs {
			waitFor(t, fmt.Sprintf("shard %d's install %d", s, gen+1), func() bool {
				return c.Version() == v && c.Counters().Counter("global_installs").Value() == int64(gen+1)
			})
		}
	}
	if got := tap.Counters().Counter("tier_folds").Value(); got != 2 {
		t.Fatalf("tier_folds = %d, want 2", got)
	}
	if got := tap.Counters().Counter("tier_partials_received").Value(); got != 4 {
		t.Fatalf("tier_partials_received = %d, want 4", got)
	}
	st := tap.tierStatus()
	if !st.Healthy || st.Shards != 2 {
		t.Fatalf("tier status unhealthy or wrong width: %+v", st)
	}
}

// TestLostResponseCountsOnce: every shard loses the leader's first
// answer after the leader took its partial — a held shard's and the
// folding shard's — and retries. The retries are repeats: the updates
// count once, the generation folds each partial once, and the published
// params are, bit for bit, a fresh leader's fold of the same partials.
func TestLostResponseCountsOnce(t *testing.T) {
	const perShard = 3
	tap, cs := newTier(t, 2, perShard, true)
	for s, c := range cs {
		driveRound(t, c, int64(100*s), perShard, float64(s+1))
	}
	waitFor(t, "both answers lost", func() bool {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		return len(tap.dropped) == 2
	})
	waitFor(t, "fold", func() bool { return tap.Version("") >= 2 })
	if got := tap.Counters().Counter("tier_updates_represented").Value(); got != 2*perShard {
		t.Fatalf("tier_updates_represented = %d for %d updates sent", got, 2*perShard)
	}
	for s, c := range cs {
		waitFor(t, fmt.Sprintf("shard %d install", s), func() bool { return c.Version() == 2 })
		if got := c.Counters().Counter("partial_exchange_retries").Value(); got != 1 {
			t.Fatalf("shard %d: partial_exchange_retries = %d, want 1 (the lost response)", s, got)
		}
	}
	ref, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	ref.Ping(0)
	ref.Ping(1)
	tap.mu.Lock()
	sent := slices.Clone(tap.sent)
	tap.mu.Unlock()
	for _, pc := range sent {
		if _, err := ref.SubmitPartial(pc); err != nil {
			t.Fatal(err)
		}
	}
	if v := ref.Version(""); v != 2 || len(sent) != 2 {
		t.Fatalf("reference leader at v%d after %d partials", v, len(sent))
	}
	_, want := ref.Global("")
	_, got := tap.Global("")
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("param %d = %v, the single-weight fold gives %v", j, got[j], want[j])
		}
	}
	for s, c := range cs {
		for j, p := range storedParams(t, c, 2) {
			if math.Float64bits(p) != math.Float64bits(want[j]) {
				t.Fatalf("shard %d param %d = %v, want %v", s, j, p, want[j])
			}
		}
	}
}

// TestLeaderTakesOnePartialPerShard pins the generation at the leader:
// one slot per shard. A shard's second, different partial before the
// fold is answered with a retry and neither buffered nor folded; a
// repeat of a held partial waits for the fold and gets its install; and
// a repeat after the fold is answered with the same install without
// counting again.
func TestLeaderTakesOnePartialPerShard(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	leader.Ping(1)
	if err := leader.EnsureJob(""); err != nil {
		t.Fatal(err)
	}
	_, init := leader.Global("")
	blob, err := codec.Encode(init, codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}
	partial := func(shard int, round uint64) coord.PartialCommit {
		return coord.PartialCommit{ShardID: shard, Round: round, BaseVersion: 1, Updates: 3, Weight: 30, Blob: blob}
	}
	first, err1 := leader.SubmitPartial(partial(0, 7))
	_, err2 := leader.SubmitPartial(partial(0, 8))
	counts := func(partials, updates, folds int64) {
		t.Helper()
		c := leader.Counters()
		if p, u, f := c.Counter("tier_partials_received").Value(), c.Counter("tier_updates_represented").Value(), c.Counter("tier_folds").Value(); p != partials || u != updates || f != folds {
			t.Fatalf("partials %d, updates %d, folds %d; want %d, %d, %d", p, u, f, partials, updates, folds)
		}
	}
	counts(1, 3, 0)
	if v := leader.Version(""); v != 1 {
		t.Fatalf("one shard moved the tier to v%d", v)
	}
	if err1 != nil || first.Version != 0 || first.Blob != nil {
		t.Fatalf("first partial of a generation answered v%d (%d bytes), %v; want held", first.Version, len(first.Blob), err1)
	}
	if err2 != errRetry {
		t.Fatalf("second partial from a held shard answered %v, want errRetry", err2)
	}
	type answer struct {
		inst coord.GlobalInstall
		err  error
	}
	repeat := make(chan answer)
	go func() {
		inst, err := leader.SubmitPartial(partial(0, 7))
		repeat <- answer{inst, err}
	}()
	select {
	case a := <-repeat:
		t.Fatalf("a repeat answered before the fold: v%d, %v", a.inst.Version, a.err)
	case <-time.After(20 * time.Millisecond):
	}
	folded, err := leader.SubmitPartial(partial(1, 7))
	if err != nil || folded.Version != 2 || len(folded.Blob) == 0 {
		t.Fatalf("fold-completing partial answered v%d (%d bytes), %v; want the v2 install", folded.Version, len(folded.Blob), err)
	}
	a := <-repeat
	if a.err != nil || a.inst.Version != 2 || !bytes.Equal(a.inst.Blob, folded.Blob) {
		t.Fatalf("held shard's repeat answered v%d, %v; want the v2 install", a.inst.Version, a.err)
	}
	for s := range 2 {
		inst, err := leader.SubmitPartial(partial(s, 7))
		if err != nil || inst.Version != 2 || !bytes.Equal(inst.Blob, folded.Blob) {
			t.Fatalf("shard %d's repeat after the fold answered v%d, %v; want the v2 install", s, inst.Version, err)
		}
	}
	counts(2, 6, 1)
}

// TestInstallStoresReceivedBytes pins the install fast path's invariant:
// a shard stores the leader's raw64 blob behind the checkpoint header
// instead of re-serializing its own params, so at every installed
// version the stored bytes are model.Save of the leader's global, byte
// for byte, and load back to the leader's bits.
func TestInstallStoresReceivedBytes(t *testing.T) {
	const devices, installs = 2, 8
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	dir := t.TempDir()
	c, err := coord.New(coord.Config{
		Mode: coord.ModeSync, ModelKind: model.KindA, Seed: 7,
		TargetUpdates: devices, Quorum: devices, OverCommit: 1,
		RoundDeadline: time.Hour, Exchange: leader,
		StoreDir: dir, KeepVersions: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	name := c.Config().ModelName
	checkInFleet(t, c, 0, devices)
	want := make(map[int][]byte)
	for v := 2; v < 2+installs; v++ {
		driveRound(t, c, 0, devices, float64(v))
		waitFor(t, "install", func() bool { return c.Version() == v })
		lv, global := leader.Global("")
		if lv != v {
			t.Fatalf("leader at v%d, shard installed v%d", lv, v)
		}
		m, err := model.New(model.KindA, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetParams(global); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Save(m, &buf); err != nil {
			t.Fatal(err)
		}
		want[v] = buf.Bytes()
		stored, err := c.Store().Get(name, v)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range stored.Params() {
			if math.Float64bits(p) != math.Float64bits(global[j]) {
				t.Fatalf("v%d: stored param %d = %v, leader's %v", v, j, p, global[j])
			}
		}
	}
	// Close waits out the last install's bookkeeping and flushes the
	// write-behind queue: every version's stored bytes are on disk.
	c.Close()
	if got := c.Counters().Counter("global_installs").Value(); got != installs {
		t.Fatalf("global_installs = %d, want %d", got, installs)
	}
	for v, w := range want {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-v%03d.fct", name, v)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("v%d: stored checkpoint (%d bytes) differs from model.Save of the leader's global (%d bytes)", v, len(got), len(w))
		}
	}
}

// TestLeaderFoldRollsBack: a fold the non-finite screen rejects leaves
// the tier on its last good version and bits — the failed fold's buffer
// is dropped, the sealed one never written — and is answered with that
// install, which does not advance; the next good fold advances from
// there.
func TestLeaderFoldRollsBack(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	if err := leader.EnsureJob(""); err != nil {
		t.Fatal(err)
	}
	_, before := leader.Global("")
	bad := tensor.NewVector(len(before))
	bad[len(bad)/2] = math.Inf(1)
	submit := func(round uint64, partial tensor.Vector) coord.GlobalInstall {
		blob, err := codec.Encode(partial, codec.RawF64)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := leader.SubmitPartial(coord.PartialCommit{Round: round, BaseVersion: 1, Updates: 1, Weight: 1, Blob: blob})
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	kept := submit(1, bad)
	if kept.Version != 1 {
		t.Fatalf("rejected fold answered v%d, want the v1 install", kept.Version)
	}
	if got := leader.Counters().Counter("tier_fold_errors").Value(); got != 1 {
		t.Fatalf("tier_fold_errors = %d, want 1", got)
	}
	_, after := leader.Global("")
	installed, _, err := codec.Decode(kept.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for j := range before {
		if math.Float64bits(after[j]) != math.Float64bits(before[j]) || math.Float64bits(installed[j]) != math.Float64bits(before[j]) {
			t.Fatalf("param %d = %v after rollback, %v in the answer, want %v", j, after[j], installed[j], before[j])
		}
	}
	good := tensor.NewVector(len(before))
	good.Fill(0.25)
	inst := submit(2, good)
	if inst.Version != 2 {
		t.Fatalf("good fold after a rollback reached v%d, want v2", inst.Version)
	}
	got, _, err := codec.Decode(inst.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if want := before[j] + 0.25; got[j] != want {
			t.Fatalf("v2 param %d = %v, want %v", j, got[j], want)
		}
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
// out-of-tier shard ids, undecodable blobs, dimension mismatches and a
// base ahead of the tier must be rejected without poisoning the tier.
func TestLeaderRejectsBadPartials(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	if err := leader.EnsureJob(""); err != nil {
		t.Fatal(err)
	}
	_, init := leader.Global("")
	wide, err := codec.Encode(tensor.NewVector(len(init)+1), codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}
	fits, err := codec.Encode(tensor.NewVector(len(init)), codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name string
		pc   coord.PartialCommit
	}{
		{"out-of-tier shard id", coord.PartialCommit{ShardID: 5, Round: 1}},
		{"undecodable blob", coord.PartialCommit{Round: 1, Blob: []byte("junk")}},
		{"wrong dimension", coord.PartialCommit{Round: 1, BaseVersion: 1, Blob: wide}},
		{"base ahead of the tier", coord.PartialCommit{Round: 1, BaseVersion: 2, Blob: fits}},
	} {
		if _, err := leader.SubmitPartial(tc.pc); err == nil {
			t.Fatalf("want error for %s", tc.name)
		}
		if got := leader.Counters().Counter("tier_bad_partials").Value(); got != int64(i+1) {
			t.Fatalf("%s: tier_bad_partials = %d, want %d", tc.name, got, i+1)
		}
		if v := leader.Version(""); v != 1 {
			t.Fatalf("%s moved the tier to v%d", tc.name, v)
		}
	}
}
