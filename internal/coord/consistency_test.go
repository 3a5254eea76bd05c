package coord

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/model"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// groundTruth caches each published version's parameter vector, read from
// the store (which the commit pipeline fills before the serving swap).
type groundTruth struct {
	mu sync.Mutex
	c  *Coordinator
	v  map[int]tensor.Vector
}

// params returns the store's record of a published version. Errors are
// returned, not Fatal-ed: callers run on hammer goroutines, and FailNow
// must only be called from the test goroutine — failures travel the
// errs channel like every other hammer error.
func (g *groundTruth) params(version int) (tensor.Vector, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p, ok := g.v[version]; ok {
		return p, nil
	}
	m, err := g.c.Store().Get(g.c.Config().ModelName, version)
	if err != nil {
		return nil, errf("store has no v%d although a task referenced it: %v", version, err)
	}
	p := m.Params()
	g.v[version] = p
	return p, nil
}

// TestTaskSnapshotConsistencyUnderCommits is the broadcast plane's
// concurrency gauntlet (run with -race): many goroutines hammer the task
// path — full broadcasts and delta requests against every version they
// have seen — while committer goroutines keep the commit pipeline
// permanently busy. The invariant under test: a task's version metadata
// and its payload always come from the same published snapshot, i.e. the
// blob (or the delta applied to its base) reproduces the store's record
// of exactly the version the task names, bit for bit (raw64 end to end),
// and once the hammers stop every stored version still loads with the
// bits first read for it. Before the plane split this property required
// the coordinator mutex; now the hammers never touch any lock the commit
// pipeline holds.
func TestTaskSnapshotConsistencyUnderCommits(t *testing.T) {
	c, err := New(Config{
		Mode:           ModeAsync,
		ModelKind:      model.KindA,
		Seed:           1,
		TargetUpdates:  4,
		Quorum:         2,
		MaxInflight:    1 << 30,
		RoundDeadline:  time.Minute,
		StalenessAlpha: 0.5,
		QueueDepth:     256,
		KeepVersions:   -1, // every version stays checkable
		Transport: transport.Config{
			// Lossless both ways so reconstruction must be exact.
			Default:      transport.Policy{Task: codec.RawF64, Update: codec.RawF64, Delta: codec.RawF64},
			DeltaHistory: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		hammers      = 8
		committers   = 3
		targetCommit = 12
	)
	truth := &groundTruth{c: c, v: map[int]tensor.Vector{}}
	stop := make(chan struct{})
	var nextID atomic.Int64
	nextID.Store(1000)

	info := func(id int64) DeviceInfo {
		return DeviceInfo{ID: id, Model: "Pixel-6", Platform: "Android",
			WiFi: true, BatteryHigh: true, ModernOS: true, SessionSec: 3600, Weight: 10}
	}

	var wg sync.WaitGroup
	errs := make(chan error, hammers+committers)
	// Committers drive the pipeline: request, submit, repeat. Every
	// TargetUpdates accepted updates forces a full commit (aggregate,
	// snapshot build, store insert, swap). Even-indexed committers submit
	// in wire form through the pooled-payload path — encode, stream back
	// through DecodePayloadFrom, hand the pooled buffer to SubmitUpdate —
	// so commits continuously recycle pool buffers while the hammers read
	// published snapshots (the aliasing gauntlet for the zero-copy path).
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(id int64, wire bool) {
			defer wg.Done()
			c.CheckIn(info(id))
			for {
				select {
				case <-stop:
					return
				default:
				}
				task, err := c.RequestTask(id)
				if err != nil {
					continue // commit in flight or assignment pending
				}
				// A fresh delta per submission: SubmitUpdate retains the
				// slice until the round aggregates, and in async mode an
				// earlier round's entry can still be buffered (carry-over)
				// when this device is handed its next task — mutating a
				// shared buffer here would race with that aggregation.
				delta := tensor.NewVector(c.dim)
				for j := range delta {
					delta[j] = 1e-4 * float64(id%7+1) * float64(j%13+1)
				}
				sub := Submission{
					DeviceID:    id,
					RoundID:     task.RoundID,
					BaseVersion: task.BaseVersion,
					Weight:      10,
					Delta:       delta,
				}
				if wire {
					blob, err := codec.Encode(delta, codec.RawF64)
					if err != nil {
						errs <- errf("committer %d: encode: %v", id, err)
						return
					}
					p, err := codec.DecodePayloadFrom(bytes.NewReader(blob), c.dim)
					if err != nil {
						errs <- errf("committer %d: payload decode: %v", id, err)
						return
					}
					sub.Delta, sub.Payload = nil, p
				}
				_ = c.SubmitUpdate(sub) // takes payload ownership on every outcome
			}
		}(int64(i+1), i%2 == 0)
	}
	// Hammers: each request uses a fresh device (always assignable) and
	// randomly advertises a previously published base version, so full
	// blobs, cached deltas, pre-encoded deltas, and no-change frames all
	// flow while versions advance underneath.
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := nextID.Add(1)
				c.CheckIn(info(id))
				q := TaskQuery{Binary: true}
				if v := c.Version(); v > 1 && rng.Intn(2) == 0 {
					q.BaseVersion = 1 + rng.Intn(v)
				}
				task, err := c.RequestTaskWith(id, q)
				if err != nil {
					continue
				}
				want, err := truth.params(task.BaseVersion)
				if err != nil {
					errs <- err
					return
				}
				// The shared Params slice must be the published snapshot
				// of exactly the version the task names.
				if len(task.Params) != len(want) {
					errs <- errf("task v%d: params dim %d, want %d", task.BaseVersion, len(task.Params), len(want))
					return
				}
				for j := range want {
					if task.Params[j] != want[j] {
						errs <- errf("task v%d: params[%d] = %g, want %g (torn snapshot)", task.BaseVersion, j, task.Params[j], want[j])
						return
					}
				}
				// And the encoded payload must rebuild the same version.
				var got tensor.Vector
				if task.DeltaBase > 0 {
					if task.DeltaBase != q.BaseVersion {
						errs <- errf("task v%d: delta base %d, requested %d", task.BaseVersion, task.DeltaBase, q.BaseVersion)
						return
					}
					var base tensor.Vector
					if base, err = truth.params(task.DeltaBase); err != nil {
						errs <- err
						return
					}
					got, _, err = codec.ApplyDelta(base, task.EncodedParams)
				} else {
					got, _, err = codec.Decode(task.EncodedParams)
				}
				if err != nil {
					errs <- errf("task v%d: payload decode: %v", task.BaseVersion, err)
					return
				}
				// Full blobs are raw64 → exact. Delta reconstruction is
				// base + (published - base): lossless frames, but FP
				// re-association costs an ulp — a version mismatch would
				// be off by the ~1e-4 per-commit step, 8 orders louder
				// than the 1e-12 tolerance.
				for j := range want {
					if d := got[j] - want[j]; d > 1e-12 || d < -1e-12 {
						errs <- errf("task v%d (delta base %d): payload[%d] = %g, want %g (version/blob mismatch)",
							task.BaseVersion, task.DeltaBase, j, got[j], want[j])
						return
					}
				}
			}
		}(int64(i + 1))
	}

	// Generous budget: a single-core -race runner needs wall-clock for 12
	// full pipelines while 8 hammers compete for the same core.
	deadline := time.Now().Add(45 * time.Second)
	for c.Version() < 1+targetCommit && time.Now().Before(deadline) {
		select {
		case err := <-errs:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if v := c.Version(); v < 1+targetCommit {
		t.Fatalf("only %d commits happened under load, want >= %d", v-1, targetCommit)
	}
	// Every retained version still loads, its checkpoint's CRC intact,
	// with the bits first read for it: a version buffer is never written
	// after its seal, whatever view of it was published.
	name := c.Config().ModelName
	for _, v := range c.Store().Versions(name) {
		m, err := c.Store().Get(name, v)
		if err != nil {
			t.Fatalf("v%d no longer loads from the store: %v", v, err)
		}
		for j, x := range truth.v[v] {
			if math.Float64bits(m.Params()[j]) != math.Float64bits(x) {
				t.Fatalf("stored v%d param %d = %g, first read as %g", v, j, m.Params()[j], x)
			}
		}
	}
	// The hammer mix must actually have exercised the delta plane.
	if c.Counters().Counter("task_sent_delta").Value()+c.Counters().Counter("delta_cache_hits").Value()+
		c.Counters().Counter("delta_cache_misses").Value() == 0 {
		t.Fatal("no delta frames flowed during the consistency hammer")
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestPayloadAliasingUnderConcurrentCommits pins the pooled-payload
// lifetime contract with exact arithmetic (run with -race): four devices
// concurrently submit raw64 wire payloads whose nonzero coordinates are
// disjoint (device d owns j where j%devices == d), so FedAvg's result is
// independent of aggregation order and each committed version must equal
// a sequential reference bit for bit. If a pooled buffer were recycled
// while a round still reads it — the aliasing bug this guards against —
// a later round's bytes would bleed into an earlier aggregate and the
// exact comparison (or Release poisoning, or the race detector) fires.
// Rounds repeat so buffers released by round r are re-acquired by round
// r+1 while the store still serves r's snapshot.
func TestPayloadAliasingUnderConcurrentCommits(t *testing.T) {
	const (
		devices = 4
		rounds  = 6
	)
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          2,
		TargetUpdates: devices,
		Quorum:        devices,
		OverCommit:    1, // MaxAssign == devices: each device aggregates exactly once per round
		RoundDeadline: time.Minute,
		QueueDepth:    64,
		KeepVersions:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	name := c.Config().ModelName
	base, err := c.Store().Get(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.Params().Clone()
	for id := int64(1); id <= devices; id++ {
		c.CheckIn(testInfo(id))
	}

	for round := 0; round < rounds; round++ {
		deltas := make([]tensor.Vector, devices)
		for d := range deltas {
			delta := tensor.NewVector(c.dim)
			for j := d; j < c.dim; j += devices {
				delta[j] = 1e-3 * float64(round*devices+d+1)
			}
			deltas[d] = delta
		}
		errs := make(chan error, devices)
		var wg sync.WaitGroup
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				id := int64(d + 1)
				var task Task
				deadline := time.Now().Add(10 * time.Second)
				for {
					var err error
					if task, err = c.RequestTask(id); err == nil {
						break
					}
					if time.Now().After(deadline) {
						errs <- errf("device %d: no task before deadline: %v", id, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				blob, err := codec.Encode(deltas[d], codec.RawF64)
				if err != nil {
					errs <- errf("device %d: encode: %v", id, err)
					return
				}
				p, err := codec.DecodePayloadFrom(bytes.NewReader(blob), c.dim)
				if err != nil {
					errs <- errf("device %d: payload decode: %v", id, err)
					return
				}
				if err := c.SubmitUpdate(Submission{
					DeviceID:    id,
					RoundID:     task.RoundID,
					BaseVersion: task.BaseVersion,
					Weight:      1,
					Payload:     p,
				}); err != nil {
					errs <- errf("device %d: submit: %v", id, err)
				}
			}(d)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		want := round + 2 // versions are 1-based; round r publishes r+2
		eventually(t, 15*time.Second, func() bool { return c.Version() >= want },
			"round never committed")
		// Equal unit weights: alpha is exactly 1/devices = 0.25, and the
		// disjoint supports make the fold order irrelevant even in FP.
		for d := 0; d < devices; d++ {
			ref.AddScaled(1.0/devices, deltas[d])
		}
		m, err := c.Store().Get(name, want)
		if err != nil {
			t.Fatalf("store v%d: %v", want, err)
		}
		got := m.Params()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("round %d: v%d params[%d] = %g, want %g (payload aliasing?)",
					round, want, j, got[j], ref[j])
			}
		}
	}
}

// TestWriteBehindPersistence pins the stage-3 contract: commits return
// before their disk write, versions are readable from the store
// immediately, publish_pending drains, and Close flushes every committed
// snapshot to the backing directory. Running past recentRounds commits
// also pins the bound on the finished-round log.
func TestWriteBehindPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := syncTestConfig()
	cfg.StoreDir = dir
	cfg.KeepVersions = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := c.Config().ModelName

	const rounds = recentRounds + 2
	for round := 0; round < rounds; round++ {
		base := c.Version()
		for id := int64(1); id <= 3; id++ {
			submitFor(t, c, id, join(t, c, id))
		}
		eventually(t, 5*time.Second, func() bool { return c.Version() == base+1 },
			"round never committed")
		// The new version is readable before any disk flush is forced.
		if _, err := c.Store().Get(name, base+1); err != nil {
			t.Fatalf("v%d not in store right after commit: %v", base+1, err)
		}
	}
	recent := c.Status().Recent
	if len(recent) != recentRounds || recent[0].NewVersion != rounds+2-recentRounds ||
		recent[recentRounds-1].NewVersion != rounds+1 {
		t.Fatalf("round log after %d commits: %+v, want the last %d", rounds, recent, recentRounds)
	}
	c.Close()
	if got := c.Counters().Counter("publish_pending").Value(); got != 0 {
		t.Fatalf("publish_pending = %d after Close, want 0", got)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, name+"-v*.fct"))
	if len(matches) != rounds+1 { // initial publish + one per committed round
		t.Fatalf("persisted %d snapshots, want %d: %v", len(matches), rounds+1, matches)
	}
}
