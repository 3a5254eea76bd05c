package fleet

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tenant"
	"flint/internal/transport"
)

// TestFleetEndToEnd drives a fleet of goroutine devices through a live
// httptest server until at least 3 rounds commit, in both serving modes.
// Run with -race: this is the subsystem's concurrency gauntlet.
func TestFleetEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		cfg  coord.Config
	}{
		{
			name: "SyncFedAvg",
			cfg: coord.Config{
				Mode:          coord.ModeSync,
				ModelKind:     model.KindA,
				Seed:          1,
				TargetUpdates: 12,
				Quorum:        4,
				OverCommit:    2,
				RoundDeadline: 5 * time.Second,
				QueueDepth:    128,
				KeepVersions:  -1,
				Criteria:      availability.Criteria{RequireWiFi: true},
			},
		},
		{
			name: "AsyncFedBuff",
			cfg: coord.Config{
				Mode:           coord.ModeAsync,
				ModelKind:      model.KindA,
				Seed:           1,
				TargetUpdates:  12,
				Quorum:         4,
				MaxInflight:    256,
				RoundDeadline:  5 * time.Second,
				MaxStaleness:   4,
				StalenessAlpha: 0.5,
				QueueDepth:     128,
				KeepVersions:   -1,
				Criteria:       availability.Criteria{RequireWiFi: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := coord.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := httptest.NewServer(coord.NewServer(c))
			defer srv.Close()

			rep, err := Run(Config{
				BaseURL:      srv.URL,
				Devices:      150,
				Rounds:       3,
				Seed:         7,
				ThinkTime:    15 * time.Millisecond,
				ComputeScale: 0.2,
				Timeout:      90 * time.Second,
			})
			if err != nil {
				t.Fatalf("fleet: %v (report: %+v)", err, rep)
			}
			if rep.RoundsCommitted < 3 {
				t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
			}
			if rep.UpdatesAccepted < int64(3*tc.cfg.Quorum) {
				t.Fatalf("only %d updates accepted", rep.UpdatesAccepted)
			}
			if rep.CheckInLatency.Count == 0 || rep.UpdateLatency.Count == 0 {
				t.Fatalf("latency histograms empty: %+v", rep)
			}
			// The published model moved: aggregation really ran.
			final, v, err := c.Store().Latest(c.Config().ModelName)
			if err != nil {
				t.Fatal(err)
			}
			if v < 4 {
				t.Fatalf("store latest version = %d, want >= 4", v)
			}
			init, err := c.Store().Get(c.Config().ModelName, 1)
			if err != nil {
				t.Fatal(err)
			}
			diff := final.Params().Clone()
			diff.Sub(init.Params())
			if diff.Norm2() == 0 {
				t.Fatal("model parameters unchanged after 3 committed rounds")
			}
		})
	}
}

// TestFleetMixedProtocols runs binary-tensor and legacy-JSON clients
// against the same server in the same rounds: the content-negotiation
// contract is that neither cohort can tell the other exists.
func TestFleetMixedProtocols(t *testing.T) {
	c, err := coord.New(coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 10,
		Quorum:        4,
		OverCommit:    2,
		RoundDeadline: 5 * time.Second,
		QueueDepth:    128,
		KeepVersions:  -1,
		Transport:     transport.Config{Default: transport.Policy{Update: codec.Q8}},
		Criteria:      availability.Criteria{RequireWiFi: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(coord.NewServer(c))
	defer srv.Close()

	rep, err := Run(Config{
		BaseURL:      srv.URL,
		Devices:      80,
		Rounds:       2,
		Seed:         11,
		ThinkTime:    15 * time.Millisecond,
		ComputeScale: 0.2,
		JSONFraction: 0.5,
		Timeout:      90 * time.Second,
	})
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.BinaryDevices != 40 || rep.JSONDevices != 40 {
		t.Fatalf("cohorts: %d binary, %d json", rep.BinaryDevices, rep.JSONDevices)
	}
	if rep.BytesSent == 0 || rep.BytesRecv == 0 {
		t.Fatalf("wire stats empty: %+v", rep)
	}
	// Both protocols actually carried traffic on both directions.
	for _, counter := range []string{"task_sent_binary", "task_sent_json", "update_recv_binary", "update_recv_json"} {
		if c.Counters().Counter(counter).Value() == 0 {
			t.Errorf("counter %s = 0: that protocol path never ran", counter)
		}
	}
	// Quantized binary updates aggregated alongside JSON ones.
	final, _, err := c.Store().Latest(c.Config().ModelName)
	if err != nil {
		t.Fatal(err)
	}
	init, err := c.Store().Get(c.Config().ModelName, 1)
	if err != nil {
		t.Fatal(err)
	}
	diff := final.Params().Clone()
	diff.Sub(init.Params())
	if diff.Norm2() == 0 {
		t.Fatal("model parameters unchanged after mixed-protocol rounds")
	}
}

// TestFleetTransportMix is the acceptance gauntlet scaled for CI: delta-
// capable binary and full-broadcast JSON devices share the same rounds in
// both serving modes, deltas actually flow, and the downlink wire stats
// surface in /v1/status.
func TestFleetTransportMix(t *testing.T) {
	for _, mode := range []coord.Mode{coord.ModeSync, coord.ModeAsync} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := coord.Config{
				Mode:          mode,
				ModelKind:     model.KindA,
				Seed:          1,
				TargetUpdates: 12,
				Quorum:        4,
				OverCommit:    2,
				MaxInflight:   256,
				RoundDeadline: 5 * time.Second,
				MaxStaleness:  4,
				QueueDepth:    128,
				KeepVersions:  -1,
				Criteria:      availability.Criteria{}, // admit cellular: both cohorts serve
			}
			c, err := coord.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := httptest.NewServer(coord.NewServer(c))
			defer srv.Close()

			// Rounds must exceed Devices/TargetUpdates (= 5): the fast
			// commit pipeline can otherwise finish every round from
			// devices' *first* task fetches alone, and delta frames only
			// flow on a device's second fetch (when it holds a base).
			rep, err := Run(Config{
				BaseURL:      srv.URL,
				Devices:      60,
				Rounds:       8,
				Seed:         23,
				ThinkTime:    15 * time.Millisecond,
				ComputeScale: 0.2,
				JSONFraction: 0.3,
				Timeout:      90 * time.Second,
			})
			if err != nil {
				t.Fatalf("fleet: %v (report: %+v)", err, rep)
			}
			if rep.RoundsCommitted < 3 {
				t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
			}
			if rep.JSONDevices != 18 || rep.BinaryDevices != 42 {
				t.Fatalf("cohorts: %d json, %d binary", rep.JSONDevices, rep.BinaryDevices)
			}
			if rep.DeltaTasks == 0 {
				t.Fatal("no delta frames flowed in a delta-capable fleet")
			}
			counters := c.Counters()
			for _, name := range []string{
				"task_sent_binary", "task_sent_json", "task_sent_delta",
				"update_recv_binary", "update_recv_json",
				"broadcast_bytes_full", "broadcast_bytes_delta",
			} {
				if counters.Counter(name).Value() == 0 {
					t.Errorf("counter %s = 0: that path never ran", name)
				}
			}
			if hits, misses := counters.Counter("delta_cache_hits").Value(),
				counters.Counter("delta_cache_misses").Value(); hits+misses == 0 {
				t.Error("delta cache never exercised")
			}
			// The downlink stats ride /v1/status like the uplink ones.
			st := rep.FinalStatus
			if st == nil {
				t.Fatal("no final status")
			}
			for _, name := range []string{"broadcast_bytes_full", "broadcast_bytes_delta", "delta_cache_hits"} {
				if _, ok := st.Counters[name]; !ok {
					t.Errorf("status counters missing %s", name)
				}
			}
			// Aggregation still converged across both client kinds.
			final, _, err := c.Store().Latest(c.Config().ModelName)
			if err != nil {
				t.Fatal(err)
			}
			init, err := c.Store().Get(c.Config().ModelName, 1)
			if err != nil {
				t.Fatal(err)
			}
			moved := final.Params().Clone()
			moved.Sub(init.Params())
			if moved.Norm2() == 0 {
				t.Fatal("model parameters unchanged after mixed-transport rounds")
			}
		})
	}
}

// TestFleetPoisonReplay is the live poison-replay drill in miniature —
// and, under -race, the concurrency hammer for the defended commit path:
// a fleet with a 25% sign-flip adversary drives wire-form poisoned and
// clean payloads through screen → trimmed-mean → clip → noise
// concurrently for 3+ rounds.
func TestFleetPoisonReplay(t *testing.T) {
	cfg := coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 12,
		Quorum:        4,
		OverCommit:    2,
		RoundDeadline: 5 * time.Second,
		QueueDepth:    128,
		Aggregation:   coord.AggregationConfig{Strategy: "trimmed-mean"},
		DP:            coord.DPConfig{Epsilon: 8},
	}
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(coord.NewServer(c))
	defer srv.Close()

	rep, err := Run(Config{
		BaseURL:        srv.URL,
		Devices:        60,
		Rounds:         3,
		Seed:           7,
		ThinkTime:      10 * time.Millisecond,
		ComputeScale:   0.1,
		DeltaBias:      0.05,
		PoisonFraction: 0.25,
		Timeout:        90 * time.Second,
	})
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.RoundsCommitted < 3 {
		t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
	}
	if rep.PoisonedDevices == 0 || rep.PoisonedDevices >= 60 {
		t.Fatalf("adversary compromised %d of 60 devices", rep.PoisonedDevices)
	}
	st := rep.FinalStatus
	if st == nil {
		t.Fatal("fleet report missing final status")
	}
	if st.Counters["updates_screened_norm"] == 0 {
		t.Fatal("no poisoned update was ever norm-screened")
	}
	if st.Privacy == nil || st.Privacy.EpsilonSpent <= 0 || st.Counters["dp_rounds"] == 0 {
		t.Fatalf("privacy accounting missing: %+v", st.Privacy)
	}
	if math.IsNaN(st.ModelNorm) || math.IsInf(st.ModelNorm, 0) {
		t.Fatalf("model norm %v after poisoned rounds", st.ModelNorm)
	}
}

// TestFleetMultiTenant drives the job plane end to end: one tenant router
// hosting two jobs (one token-protected), two concurrent fleets on
// disjoint device IDs, both committing rounds, plus the rollup status
// shape.
func TestFleetMultiTenant(t *testing.T) {
	reg := tenant.NewRegistry(coord.Config{
		Mode:          coord.ModeAsync,
		Seed:          1,
		TargetUpdates: 8,
		Quorum:        4,
		RoundDeadline: 5 * time.Second,
	})
	defer reg.Close()
	specs, err := tenant.LoadSpecs([]byte(`[
		{"name": "ads"},
		{"name": "msg", "mode": "async", "token": "fleet-t0ken"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := reg.Register(sp); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(tenant.NewServer(reg, false))
	defer srv.Close()

	fleet := func(job, token string, offset int64) Config {
		return Config{
			BaseURL:   srv.URL,
			Job:       job,
			Token:     token,
			IDOffset:  offset,
			Devices:   40,
			Rounds:    2,
			Seed:      3 + offset,
			ThinkTime: 5 * time.Millisecond,
			Timeout:   90 * time.Second,
		}
	}
	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	errs := make([]error, 2)
	for i, cfg := range []Config{fleet("ads", "", 0), fleet("msg", "fleet-t0ken", 1000)} {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			reports[i], errs[i] = Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fleet %d: %v", i, err)
		}
		if reports[i].RoundsCommitted < 2 {
			t.Fatalf("fleet %d committed %d rounds, want >= 2", i, reports[i].RoundsCommitted)
		}
	}

	// The rollup sees both tenants' progress.
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st tenant.StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.DefaultJob != "ads" || st.Fleet.Jobs != 2 {
		t.Fatalf("rollup: default %q, %d jobs", st.DefaultJob, st.Fleet.Jobs)
	}
	for _, name := range []string{"ads", "msg"} {
		if st.Jobs[name].RoundsCommitted < 2 {
			t.Fatalf("job %s rollup shows %d rounds", name, st.Jobs[name].RoundsCommitted)
		}
	}
	// A tokenless probe of the protected tenant stays locked out even
	// while its own fleet runs.
	probe, err := srv.Client().Get(srv.URL + "/v1/jobs/msg/task")
	if err != nil {
		t.Fatal(err)
	}
	probe.Body.Close()
	if probe.StatusCode != 401 {
		t.Fatalf("tokenless probe = %d, want 401", probe.StatusCode)
	}
}
