package flint_test

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flint"
)

// TestServingFacade exercises the live-serving exports end to end: start a
// coordinator behind its HTTP API and drive a small fleet through one
// committed round.
func TestServingFacade(t *testing.T) {
	cfg := flint.DefaultCoordConfig()
	cfg.Mode = flint.CoordAsync
	cfg.TargetUpdates = 8
	cfg.Quorum = 4
	cfg.RoundDeadline = 5 * time.Second
	c, err := flint.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(flint.CoordHandler(c))
	defer srv.Close()

	rep, err := flint.RunFleet(flint.FleetConfig{
		BaseURL:      srv.URL,
		Devices:      40,
		Rounds:       1,
		Seed:         3,
		ThinkTime:    10 * time.Millisecond,
		ComputeScale: 0,
		Timeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsCommitted < 1 || rep.EndVersion < 2 {
		t.Fatalf("fleet report: %+v", rep)
	}
	// In-flight devices can drive more commits between the watcher's
	// observation and fleet drain, so the live version only grows.
	if c.Version() < rep.EndVersion {
		t.Fatalf("facade version %d < fleet-observed %d", c.Version(), rep.EndVersion)
	}
	// The default fleet speaks the binary protocol; its wire traffic is
	// visible in the report.
	if rep.BinaryDevices != 40 || rep.BytesSent == 0 || rep.BytesRecv == 0 {
		t.Fatalf("wire stats: %d binary devices, %d sent, %d received",
			rep.BinaryDevices, rep.BytesSent, rep.BytesRecv)
	}
	// The scheduling plane is on by default and its report rides status.
	if sr := c.Status().Scheduler; !sr.Enabled {
		t.Fatalf("scheduler report: %+v", sr)
	}
}

// TestMultiTenantFacade drives the tenant exports end to end: one
// router hosting two jobs (one token-protected), two concurrent fleets
// on disjoint device IDs, both committing rounds, plus the rollup
// status shape.
func TestMultiTenantFacade(t *testing.T) {
	base := flint.DefaultCoordConfig()
	base.Mode = flint.CoordAsync
	base.TargetUpdates = 8
	base.Quorum = 4
	base.RoundDeadline = 5 * time.Second
	reg := flint.NewJobRegistry(base)
	defer reg.Close()
	specs, err := flint.LoadJobSpecs([]byte(`[
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
	srv := httptest.NewServer(flint.TenantHandler(reg, false))
	defer srv.Close()

	fleet := func(job, token string, offset int64) flint.FleetConfig {
		return flint.FleetConfig{
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
	reports := make([]*flint.FleetReport, 2)
	errs := make([]error, 2)
	for i, cfg := range []flint.FleetConfig{fleet("ads", "", 0), fleet("msg", "fleet-t0ken", 1000)} {
		wg.Add(1)
		go func(i int, cfg flint.FleetConfig) {
			defer wg.Done()
			reports[i], errs[i] = flint.RunFleet(cfg)
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
	var st flint.TenantStatus
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
