package fleet

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/network"
	"flint/internal/sched"
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

// TestFleetSchedulerChurn is the scheduling plane's end-to-end gauntlet:
// a fleet with trace-driven availability churn and simulated mixed
// bandwidth drives sync rounds over the live HTTP API. Every committed
// round must close within its deadline, the scheduler must measure and
// remap devices off their radio labels, and /v1/status must carry the
// per-cohort bandwidth histograms. (Eligibility at assignment time is
// structural: Registry.Assign re-validates the criteria atomically with
// the assignment, so 100% of assigned devices are eligible by
// construction — the test asserts assignments happened at all.)
func TestFleetSchedulerChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live fleet run")
	}
	cfg := coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 12,
		Quorum:        4,
		OverCommit:    1.3,
		RoundDeadline: 6 * time.Second,
		QueueDepth:    256,
		KeepVersions:  -1,
		Criteria:      availability.Criteria{RequireWiFi: true},
		Sched:         sched.Config{RebuildEvery: 150 * time.Millisecond, MinSamples: 1},
	}
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(coord.NewServer(c))
	defer srv.Close()

	bw := network.BandwidthModel{MedianMbps: 4, Sigma: 0.9, SlowFrac: 0.2, FloorMbps: 0.05}
	rep, err := Run(Config{
		BaseURL:      srv.URL,
		Devices:      400,
		Rounds:       3,
		Seed:         7,
		ThinkTime:    15 * time.Millisecond,
		ComputeScale: 0.2,
		Churn:        true,
		TraceScale:   60,
		Bandwidth:    &bw,
		Timeout:      90 * time.Second,
		Client:       srv.Client(),
	})
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.RoundsCommitted < 3 {
		t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
	}
	st := rep.FinalStatus
	committed := 0
	for _, r := range st.Recent {
		if r.Phase != coord.PhaseCommitted {
			continue
		}
		committed++
		if r.Duration > cfg.RoundDeadline {
			t.Errorf("round %d closed in %s, past its %s deadline", r.ID, r.Duration, cfg.RoundDeadline)
		}
	}
	if committed < 3 {
		t.Fatalf("only %d committed rounds in history", committed)
	}
	if st.Counters["task_assigned"] < int64(3*cfg.TargetUpdates) {
		t.Errorf("task_assigned = %d, want >= %d", st.Counters["task_assigned"], 3*cfg.TargetUpdates)
	}
	sr := st.Scheduler
	if !sr.Enabled || sr.Measured == 0 {
		t.Fatalf("scheduler measured nothing: %+v", sr)
	}
	if sr.Remapped == 0 {
		t.Errorf("no device was remapped off its radio label (measured %d)", sr.Measured)
	}
	hist := 0
	for _, cs := range sr.Cohorts {
		for _, n := range cs.BandwidthHist {
			hist += n
		}
	}
	if hist == 0 {
		t.Error("per-cohort bandwidth histograms are empty")
	}
	t.Logf("churn fleet: %d rounds, %d/%d measured, %d remapped, over-commit x%.2f, deadline denials %d",
		rep.RoundsCommitted, sr.Measured, sr.Devices, sr.Remapped,
		sr.OverCommitScale, st.Counters["task_denied_deadline"])
}
