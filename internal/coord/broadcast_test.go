package coord

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// cacheLen counts a plane's derived artifacts.
func cacheLen(bs *broadcastState) int {
	n := 0
	bs.cache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// freshPlaneCoordinator commits one full round so the serving plane is v2
// with v1 in the ring and nothing requested from it yet, then checks in n
// idle devices (ids 101..100+n) the caller can storm it with.
func freshPlaneCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum = n, n
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for id := int64(1); id <= int64(n); id++ {
		submitFor(t, c, id, join(t, c, id))
	}
	// Wait for the v2 plane itself: Version() moves before the commit swaps
	// the serving plane, and the v1 plane holds the warm-up's artifacts.
	eventually(t, 5*time.Second, func() bool { return c.serving.Load().bcast.version == 2 }, "warm-up round never committed")
	for id := int64(101); id <= int64(100+n); id++ {
		c.CheckIn(testInfo(id))
	}
	return c
}

// TestArtifactEncodedExactlyOnce is the plane's contract under a
// post-commit storm: n concurrent first requests for one artifact cost
// one encode, the other n−1 wait on it, and everyone ships the same
// bytes — for a delta frame, a full blob and the JSON params array.
func TestArtifactEncodedExactlyOnce(t *testing.T) {
	const n = 16
	cases := []struct {
		name  string
		query TaskQuery
		body  func(Task) []byte
	}{
		{"delta", TaskQuery{Binary: true, BaseVersion: 1}, func(tk Task) []byte { return tk.EncodedParams }},
		{"full", TaskQuery{Binary: true}, func(tk Task) []byte { return tk.EncodedParams }},
		{"json", TaskQuery{}, func(tk Task) []byte { raw, _ := tk.plane.paramsJSON(); return raw }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := freshPlaneCoordinator(t, n)
			bs := c.serving.Load().bcast
			if got := cacheLen(bs); got != 0 {
				t.Fatalf("fresh plane already holds %d artifacts", got)
			}
			bodies := make([][]byte, n)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					tk, err := c.RequestTaskWith(int64(101+i), tc.query)
					if err != nil {
						t.Errorf("device %d: %v", 101+i, err)
						return
					}
					bodies[i] = tc.body(tk)
				}()
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, b := range bodies {
				if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
					t.Fatalf("device %d body differs from device 101's", 101+i)
				}
				// One shared backing array is what "encoded once" means.
				if &b[0] != &bodies[0][0] {
					t.Fatalf("device %d was served its own encode", 101+i)
				}
			}
			if got := cacheLen(bs); got != 1 {
				t.Fatalf("plane holds %d artifacts after one kind of request, want 1", got)
			}
			hits := c.Counters().Counter("delta_cache_hits").Value()
			misses := c.Counters().Counter("delta_cache_misses").Value()
			wantHits, wantMisses := int64(0), int64(0)
			if tc.query.BaseVersion > 0 {
				wantHits, wantMisses = n-1, 1
			}
			if hits != wantHits || misses != wantMisses {
				t.Fatalf("delta cache hits/misses = %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
			}
		})
	}
}

// TestPlaneArtifactsFromSnapshots: what the plane serves is defined by the
// two snapshots alone. A delta artifact is byte-for-byte the delta frame of
// the materialized difference published − base, a full artifact the plain
// encode of published — and the delta is produced straight from the ring
// entries: the plane owns no scratch vector (it is built without a pool),
// and the frame's own buffer is the encode's single allocation.
func TestPlaneArtifactsFromSnapshots(t *testing.T) {
	const dim = 1519
	snapshot := func(seed float64) tensor.Vector {
		v := make(tensor.Vector, dim)
		for i := range v {
			v[i] = seed * float64((i*7919)%113-56) / 97
		}
		return v
	}
	base, published := snapshot(0.01), snapshot(0.013)
	published[3], published[dim-1] = base[3], base[dim-1] // some exact zeros in the diff
	bs := newBroadcastState(2, published, []ringEntry{{version: 1, params: base}}, 4)
	diff := published.Clone()
	diff.Sub(base)
	for _, s := range []codec.Scheme{codec.Q8, codec.TopK(0), codec.F32, codec.RawF64} {
		want, err := codec.EncodeDelta(diff, s)
		if err != nil {
			t.Fatal(err)
		}
		key := artifactKey{kind: artifactDelta, base: 1, scheme: s}
		if got, _, err := bs.get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v delta artifact differs from EncodeDelta(published − base) (err %v)", s, err)
		}
		if want, err = codec.Encode(published, s); err != nil {
			t.Fatal(err)
		}
		if got, err := bs.fullBlob(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v full artifact differs from Encode(published) (err %v)", s, err)
		}
		if raceEnabled {
			continue // the race runtime allocates on its own
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := bs.encode(key); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("%v delta encode made %.0f allocations, want the frame alone", s, allocs)
		}
	}
}

// TestCommitEncodesNothing: a commit is reduce + pointer swap. It leaves
// the successor plane's artifact cache empty, and the only registry state
// it touches belongs to the round's own assigned devices — every other
// registry shard stays locked by the test for the whole commit, so a
// fleet-wide walk inside the commit lock would hang it.
func TestCommitEncodesNothing(t *testing.T) {
	cfg := syncTestConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := int64(1); id <= 500; id++ {
		c.CheckIn(testInfo(id))
	}
	assigned := map[*regShard]bool{}
	tasks := map[int64]Task{}
	for id := int64(1); id <= int64(cfg.TargetUpdates); id++ {
		tasks[id] = join(t, c, id)
		assigned[c.reg.shard(id)] = true
	}
	locked := 0
	for i := range c.reg.shards {
		if s := &c.reg.shards[i]; !assigned[s] {
			s.mu.Lock()
			defer s.mu.Unlock()
			locked++
		}
	}
	if locked == 0 {
		t.Fatal("no registry shard left to lock")
	}
	for id, tk := range tasks {
		submitFor(t, c, id, tk)
	}
	eventually(t, 5*time.Second, func() bool { return c.Version() == 2 },
		"commit blocked on a registry shard no assigned device lives in")
	if got := cacheLen(c.serving.Load().bcast); got != 0 {
		t.Fatalf("commit left %d artifacts in the new plane's cache", got)
	}
	if got := c.Counters().Counter("delta_cache_misses").Value(); got != 0 {
		t.Fatalf("delta_cache_misses = %d with no task traffic", got)
	}
}

// gapExchange is a tier leader that is always ahead: every install skips a
// version, as a shard sees when other shards' partials trigger folds in
// between its own. The partial doubles as the install blob (raw64, right
// dim).
type gapExchange struct{}

func (gapExchange) SubmitPartial(pc PartialCommit) (GlobalInstall, error) {
	return GlobalInstall{Version: pc.BaseVersion + 2, Blob: pc.Blob}, nil
}

// TestStoreRetentionUnderVersionGaps: a replica installing gapped tier
// versions (1, 3, 5, …) still retains at most KeepVersions snapshots, in
// memory and on disk, at every generation.
func TestStoreRetentionUnderVersionGaps(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum, cfg.OverCommit = 2, 2, 1
	cfg.Exchange = gapExchange{}
	cfg.KeepVersions = 3
	cfg.StoreDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for gen := 1; gen <= 10; gen++ {
		want := 1 + 2*gen
		for id := int64(1); id <= 2; id++ {
			submitFor(t, c, id, join(t, c, id))
		}
		eventually(t, 5*time.Second, func() bool { return c.serving.Load().bcast.version == want },
			"gapped install never landed")
		// Retention runs on the write-behind worker, so wait on its result.
		eventually(t, 5*time.Second, func() bool {
			files, _ := filepath.Glob(filepath.Join(cfg.StoreDir, "*.fct"))
			return len(c.Store().Versions(c.Config().ModelName)) <= cfg.KeepVersions && len(files) <= cfg.KeepVersions
		}, fmt.Sprintf("generation %d: store never pruned down to %d versions in memory and on disk", gen, cfg.KeepVersions))
	}
}
