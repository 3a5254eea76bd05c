package fleet_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/tensor"
	"flint/internal/vload"
)

// tierCompression is the shards' scheduler time compression, matched by
// the virtual-time run below.
const tierCompression = 120

// newTier boots an in-process tier of n shards hosting jobs "a" (the
// default) and "b": each shard is a tenant registry behind httptest whose
// coordinators exchange partials with an in-process leader and ping it
// from a heartbeat, and the gateway fronts them. Like flint-gateway, the
// leader holds every job at v1 before any traffic. It returns the leader,
// the gateway's URL and the shards' URLs; the tier turns healthy with the
// first heartbeats, which the load planes' Ready waits for.
func newTier(t *testing.T, n int) (*shard.Leader, string, []string) {
	t.Helper()
	params := func(string) (tensor.Vector, error) {
		m, err := model.New(model.KindA, 1)
		if err != nil {
			return nil, err
		}
		return m.Params(), nil
	}
	leader, err := shard.NewLeader(shard.LeaderConfig{Shards: n, Grace: 2 * time.Second, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []string{"a", "b"}
	for _, job := range jobs {
		if err := leader.EnsureJob(job); err != nil {
			t.Fatal(err)
		}
	}
	urls := make([]string, n)
	for i := range urls {
		reg := tenant.NewRegistry(coord.Config{
			Mode:      coord.ModeSync,
			ModelKind: model.KindA,
			Seed:      1,
			// A shard round needs ten distinct devices, so a round
			// takes several think times: the fleet's watcher sees the
			// first tier fold long before a second one can land.
			TargetUpdates: 10,
			Quorum:        10,
			RoundDeadline: 30 * time.Second,
			Sched:         sched.Config{TimeCompression: tierCompression},
			Exchange:      leader,
			ShardID:       i,
		})
		t.Cleanup(reg.Close)
		for _, job := range jobs {
			if _, err := reg.Register(tenant.JobSpec{Name: job}); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(tenant.NewServer(reg, false))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		hb := shard.StartHeartbeat(leader, i, 100*time.Millisecond)
		t.Cleanup(hb.Stop)
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return leader, srv.URL, urls
}

// TestFleetDrivesJobThroughTier: pointed at a gateway, the fleet learns
// the tier from /v1/status, drives the non-default job "b" and watches b's
// own tier version, so it stops after b's first fold while job "a" never
// moves.
func TestFleetDrivesJobThroughTier(t *testing.T) {
	leader, url, _ := newTier(t, 2)
	rep, err := fleet.Run(fleet.Config{
		BaseURL:      url,
		Job:          "b",
		Devices:      40,
		Rounds:       1,
		Seed:         5,
		ThinkTime:    200 * time.Millisecond,
		ComputeScale: 0,
		Timeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatalf("fleet: %v (report: %+v)", err, rep)
	}
	if rep.TierShards != 2 {
		t.Errorf("TierShards = %d, want 2", rep.TierShards)
	}
	if rep.RoundsCommitted != 1 || rep.StartVersion != 1 {
		t.Errorf("drove v%d → v%d (%d rounds), want v1 → v2", rep.StartVersion, rep.EndVersion, rep.RoundsCommitted)
	}
	if rep.FinalStatus != nil {
		t.Errorf("final status through a tier: %+v", rep.FinalStatus)
	}
	if v := leader.Version("b"); v < 2 {
		t.Errorf("leader holds job b at v%d, want >= 2", v)
	}
	if v := leader.Version("a"); v != 1 {
		t.Errorf("leader holds job a at v%d, want 1", v)
	}
}

// TestFleetUnknownJobThroughTier: a job the tier's /v1/status does not
// list fails Ready at once with an error naming it, as it does on a flat
// server, instead of reading as version 0 and spinning until the run's
// timeout.
func TestFleetUnknownJobThroughTier(t *testing.T) {
	_, url, _ := newTier(t, 2)
	const timeout = 30 * time.Second
	start := time.Now()
	rep, err := fleet.Run(fleet.Config{
		BaseURL: url,
		Job:     "nosuch",
		Devices: 4,
		Rounds:  1,
		Seed:    5,
		Timeout: timeout,
	})
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("fleet on an unknown job: err %v (report: %+v)", err, rep)
	}
	if took := time.Since(start); took > timeout/3 {
		t.Errorf("unknown job failed after %v, want well inside the %v timeout", took, timeout)
	}
}

// TestVirtualFleetThroughTier: the virtual-time plane discovers the tier
// the same way, splits its registration storm through the gateway's batch
// check-in and reports no final status, since a tier has no job detail
// document of its own.
func TestVirtualFleetThroughTier(t *testing.T) {
	_, url, _ := newTier(t, 2)
	rep, err := vload.Run(vload.Config{
		BaseURL:         url,
		Devices:         500,
		Compression:     tierCompression,
		VirtualDuration: 2 * time.Minute,
		Seed:            5,
		Timeout:         60 * time.Second,
	})
	if err != nil {
		t.Fatalf("vload: %v (report: %+v)", err, rep)
	}
	if rep.TierShards != 2 {
		t.Errorf("TierShards = %d, want 2", rep.TierShards)
	}
	if rep.FinalStatus != nil || rep.RegistryBytesPerDev != 0 {
		t.Errorf("final status or footprint through a tier: %+v", rep)
	}
	if rep.CheckIns < int64(rep.Devices) || rep.StartVersion != 1 || rep.EndVersion < 1 {
		t.Errorf("registration or versions off: %+v", rep)
	}
}
