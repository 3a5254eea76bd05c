package coord

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/model"
	"flint/internal/tensor"
)

// eventually polls cond until it holds or the deadline passes; the ingest
// pipeline is asynchronous, so state changes are observed, not forced.
func eventually(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func syncTestConfig() Config {
	return Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 3,
		Quorum:        2,
		OverCommit:    2,
		RoundDeadline: time.Minute,
		QueueDepth:    64,
	}
}

// join registers the device and pulls the current round's task.
func join(t *testing.T, c *Coordinator, id int64) Task {
	t.Helper()
	c.CheckIn(testInfo(id))
	task, err := c.RequestTask(id)
	if err != nil {
		t.Fatalf("device %d: RequestTask: %v", id, err)
	}
	return task
}

func submitFor(t *testing.T, c *Coordinator, id int64, task Task) {
	t.Helper()
	delta := tensor.NewVector(task.Dim)
	delta.Fill(0.001)
	err := c.SubmitUpdate(Submission{
		DeviceID:    id,
		RoundID:     task.RoundID,
		BaseVersion: task.BaseVersion,
		Weight:      10,
		Delta:       delta,
	})
	if err != nil {
		t.Fatalf("device %d: SubmitUpdate: %v", id, err)
	}
}

func TestCoordinatorSyncRoundCommits(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", c.Version())
	}

	for id := int64(1); id <= 3; id++ {
		task := join(t, c, id)
		if task.BaseVersion != 1 || task.RoundID != 1 {
			t.Fatalf("task = round %d base %d, want round 1 base 1", task.RoundID, task.BaseVersion)
		}
		if len(task.Params) != task.Dim || task.Dim == 0 {
			t.Fatalf("task params len %d, dim %d", len(task.Params), task.Dim)
		}
		submitFor(t, c, id, task)
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"round never committed version 2")

	st := c.Status()
	if st.Round.ID != 2 {
		t.Fatalf("after commit round ID = %d, want 2", st.Round.ID)
	}
	if got := st.Counters["rounds_committed"]; got != 1 {
		t.Fatalf("rounds_committed = %d, want 1", got)
	}
	if len(st.Recent) != 1 || st.Recent[0].Phase != PhaseCommitted || st.Recent[0].NewVersion != 2 {
		t.Fatalf("recent rounds = %+v", st.Recent)
	}
	// The store holds both versions.
	if got := c.Store().Versions(c.Config().ModelName); len(got) != 2 {
		t.Fatalf("store versions = %v, want 2 entries", got)
	}
}

// TestPersistBarrierEveryEighthVersion pins the fsync window: of 16
// committed versions (v2..v17) the write-behind worker fsyncs exactly
// v8 and v16, so a host crash loses at most persistBarrier-1 snapshots.
func TestPersistBarrierEveryEighthVersion(t *testing.T) {
	cfg := syncTestConfig()
	cfg.StoreDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := int64(0)
	for v := 2; v <= 17; v++ {
		for k := 0; k < cfg.TargetUpdates; k++ {
			id++
			submitFor(t, c, id, join(t, c, id))
		}
		eventually(t, 5*time.Second, func() bool { return c.Version() == v },
			fmt.Sprintf("round never committed version %d", v))
	}
	counter := func(name string) int64 { return c.Counters().Counter(name).Value() }
	eventually(t, 5*time.Second, func() bool { return counter("publish_pending") == 0 },
		"write-behind queue never drained")
	if got := counter("persist_barrier"); got != 2 {
		t.Fatalf("persist_barrier = %d after 16 commits, want 2", got)
	}
	if got := counter("persist_error"); got != 0 {
		t.Fatalf("persist_error = %d", got)
	}
}

// TestNewPersistsVersionOne: with a store directory, the initial version's
// checkpoint is on disk when New returns, and a directory that cannot take
// that file fails New instead of serving a version it never persisted.
func TestNewPersistsVersionOne(t *testing.T) {
	cfg := syncTestConfig()
	cfg.StoreDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := os.ReadFile(filepath.Join(cfg.StoreDir, c.Config().ModelName+"-v001.fct"))
	if err != nil {
		t.Fatalf("v1 not on disk when New returned: %v", err)
	}
	onDisk, err := model.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := model.New(cfg.ModelKind, cfg.Seed)
	if !slices.Equal(onDisk.Params(), want.Params()) {
		t.Fatal("persisted v1 differs from the initial model")
	}

	blocked := syncTestConfig()
	blocked.StoreDir = t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked.StoreDir, "served-v001.fct"), 0o755); err != nil {
		t.Fatal(err)
	}
	if c, err := New(blocked); err == nil {
		c.Close()
		t.Fatal("New succeeded with a directory sitting at the v1 checkpoint path")
	}
}

func TestCoordinatorNonFiniteScreening(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Wire-level NaN is rejected synchronously at ingress (the binary
	// protocol can carry such bit patterns; JSON can't).
	task := join(t, c, 1)
	bad := tensor.NewVector(task.Dim)
	bad[0] = math.NaN()
	err = c.SubmitUpdate(Submission{
		DeviceID: 1, RoundID: task.RoundID, BaseVersion: task.BaseVersion,
		Weight: 1, Delta: bad,
	})
	if err == nil {
		t.Fatal("NaN delta accepted")
	}
	if got := c.Counters().Counter("update_rejected_nonfinite").Value(); got != 1 {
		t.Fatalf("update_rejected_nonfinite = %d, want 1", got)
	}

	// Individually finite deltas can still overflow during aggregation.
	// Round 1 drives the global params to ~0.9*MaxFloat64 (finite, so it
	// publishes); round 2 pushes them past MaxFloat64.
	submitHuge := func(id int64, task Task) {
		t.Helper()
		delta := tensor.NewVector(task.Dim)
		delta.Fill(0.9 * math.MaxFloat64)
		err := c.SubmitUpdate(Submission{
			DeviceID: id, RoundID: task.RoundID, BaseVersion: task.BaseVersion,
			Weight: 10, Delta: delta,
		})
		if err != nil {
			t.Fatalf("device %d: SubmitUpdate: %v", id, err)
		}
	}
	// The synchronous reject must not have consumed device 1's round
	// assignment: its original task is still good.
	submitHuge(1, task)
	for id := int64(2); id <= 3; id++ {
		submitHuge(id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"huge-but-finite round never committed")
	for id := int64(1); id <= 3; id++ {
		submitHuge(id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("round_aggregate_nonfinite").Value() == 1
	}, "overflowing round was not screened")

	// The poisoned aggregate must not publish, and the in-place mutation
	// must roll back: a fresh task still carries the finite v2 params.
	if c.Version() != 2 {
		t.Fatalf("version = %d, want 2 (non-finite aggregate must not publish)", c.Version())
	}
	task = join(t, c, 4)
	for _, x := range task.Params {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("published params contain non-finite value %v after rollback", x)
		}
	}
}

func TestCoordinatorSyncRejectsLateAndAliens(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Commit round 1.
	tasks := map[int64]Task{}
	for id := int64(1); id <= 3; id++ {
		tasks[id] = join(t, c, id)
		submitFor(t, c, id, tasks[id])
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 }, "round 1 never committed")

	// A straggler re-submitting against the finished round is dropped:
	// its assignment was consumed by the first submission.
	submitFor(t, c, 1, tasks[1])
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("update_rejected_unassigned").Value() == 1
	}, "late update was not rejected")
	if c.Version() != 2 {
		t.Fatalf("version = %d, want 2 (late update must not aggregate)", c.Version())
	}

	// Wrong dimensionality is rejected synchronously.
	err = c.SubmitUpdate(Submission{DeviceID: 9, RoundID: 2, BaseVersion: 2, Delta: tensor.Vector{1, 2}})
	if err == nil {
		t.Fatal("dimension mismatch accepted")
	}

	// Unknown devices can't get tasks.
	if _, err := c.RequestTask(999); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("RequestTask(unknown) = %v, want ErrUnknownDevice", err)
	}
}

func TestCoordinatorRoundAbandonedBelowQuorum(t *testing.T) {
	cfg := syncTestConfig()
	cfg.RoundDeadline = 300 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	task := join(t, c, 1)
	submitFor(t, c, 1, task) // 1 < quorum of 2
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("rounds_abandoned").Value() >= 1
	}, "starved round was never abandoned")
	if c.Version() != 1 {
		t.Fatalf("version = %d, want 1 (abandoned round must not publish)", c.Version())
	}
	st := c.Status()
	if st.Round.ID < 2 {
		t.Fatalf("round ID = %d, want a fresh round after abandonment", st.Round.ID)
	}
}

func TestCoordinatorQuorumCommitAtDeadline(t *testing.T) {
	cfg := syncTestConfig()
	cfg.RoundDeadline = 400 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two of three target updates arrive: quorum met, so the deadline
	// commits rather than abandons.
	for id := int64(1); id <= 2; id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"quorum round did not commit at its deadline")
}

func TestCoordinatorAsyncStalenessHandling(t *testing.T) {
	cfg := Config{
		Mode:           ModeAsync,
		ModelKind:      model.KindA,
		Seed:           1,
		TargetUpdates:  2,
		Quorum:         1,
		RoundDeadline:  time.Minute,
		MaxInflight:    64,
		MaxStaleness:   1,
		StalenessAlpha: 0.5,
		QueueDepth:     64,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Devices 1 and 2 hold tasks from version 1.
	t1, t2 := join(t, c, 1), join(t, c, 2)
	// Devices 3 and 4 fill the buffer twice → versions 2 and 3.
	for id := int64(3); id <= 4; id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 }, "first buffer never committed")
	for id := int64(5); id <= 6; id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 3 }, "second buffer never committed")

	// Device 1's update is now 2 versions stale: over MaxStaleness → dropped.
	submitFor(t, c, 1, t1)
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("update_rejected_stale").Value() == 1
	}, "over-stale update was not rejected")

	// A fresh-enough straggler is still folded in: device 2 abandons its
	// stale task by re-pulling a current one (the old assignment is
	// overwritten, not a permanent block).
	t2 = join(t, c, 2)
	submitFor(t, c, 2, t2)
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("update_accepted").Value() >= 5
	}, "fresh async update was not accepted")
}

func TestCoordinatorRejectsDuplicateSubmissions(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Device 1 submits its task three times (a retry storm); only the
	// first copy may count toward the round's target of 3.
	task := join(t, c, 1)
	for i := 0; i < 3; i++ {
		submitFor(t, c, 1, task)
	}
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("update_rejected_unassigned").Value() == 2
	}, "duplicate submissions were not rejected")
	if v := c.Version(); v != 1 {
		t.Fatalf("version = %d: one device must not fill a round alone", v)
	}
	// Two more distinct devices complete the round.
	for id := int64(2); id <= 3; id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"round with 3 distinct devices never committed")
}

func TestCoordinatorBackpressure(t *testing.T) {
	c, err := New(syncTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dim := c.dim
	sub := Submission{DeviceID: 1, RoundID: 1, BaseVersion: 1, Weight: 1, Delta: tensor.NewVector(dim)}

	// A closed coordinator sheds everything.
	c.Close()
	if err := c.SubmitUpdate(sub); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}

	// With the worker stopped and the queue full, submissions shed with
	// ErrBusy instead of blocking the caller.
	c.closed.Store(false)
	c.ingest <- sub // queue depth leaves no room after this
	for len(c.ingest) < cap(c.ingest) {
		c.ingest <- sub
	}
	if err := c.SubmitUpdate(sub); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit with full queue = %v, want ErrBusy", err)
	}
	if got := c.Counters().Counter("update_rejected_busy").Value(); got != 1 {
		t.Fatalf("update_rejected_busy = %d, want 1", got)
	}
}

func TestCoordinatorCriteriaGateTasks(t *testing.T) {
	cfg := syncTestConfig()
	cfg.Criteria = availability.Criteria{RequireWiFi: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := testInfo(1)
	info.WiFi = false
	res := c.CheckIn(info)
	if res.Eligible {
		t.Fatal("check-in without wifi reported eligible")
	}
	if _, err := c.RequestTask(1); !errors.Is(err, ErrNoTask) {
		t.Fatalf("RequestTask(filtered) = %v, want ErrNoTask", err)
	}
	// Same device on WiFi gets a task.
	info.WiFi = true
	if res := c.CheckIn(info); !res.Eligible {
		t.Fatal("check-in with wifi reported ineligible")
	}
	if _, err := c.RequestTask(1); err != nil {
		t.Fatalf("RequestTask(eligible) = %v", err)
	}
}

// TestVersionNeverRunsAheadOfServing pins that Version() is read from the
// serving pair: once Version() reports v, the round Status serves is
// already based on v or later. A sync job commits continuously while a
// reader checks the two back to back.
func TestVersionNeverRunsAheadOfServing(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum = 2, 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const commits = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := int64(1); id <= 3; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c.CheckIn(testInfo(id))
			for {
				select {
				case <-stop:
					return
				default:
				}
				task, err := c.RequestTask(id)
				if err != nil {
					runtime.Gosched()
					continue
				}
				delta := tensor.NewVector(task.Dim)
				delta.Fill(0.001)
				_ = c.SubmitUpdate(Submission{DeviceID: id, RoundID: task.RoundID,
					BaseVersion: task.BaseVersion, Weight: 10, Delta: delta})
			}
		}(id)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	deadline := time.Now().Add(20 * time.Second)
	for c.Version() < 1+commits {
		if time.Now().After(deadline) {
			t.Fatalf("only reached version %d", c.Version())
		}
		v := c.Version()
		if base := c.Status().Round.Base; base < v {
			t.Fatalf("Version() = %d but the served round is based on v%d", v, base)
		}
	}
}
