package vload

import (
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/tenant"
)

// TestVirtualFleetSchedulerParity is the scheduling plane's end-to-end
// gauntlet under diurnal churn and simulated mixed links: a virtual
// fleet two hours of diurnal time deep, 120x compressed, drives sync
// rounds over the live HTTP API with a server whose scheduler runs the
// matching TimeCompression. Every committed round closes within its
// (wall) deadline, the scheduler measures devices from their
// virtual-clock telemetry and remaps them off their radio labels, the
// census histograms fill, the batch-check-in path carries the
// registrations and the footprint accounting is live.
func TestVirtualFleetSchedulerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live virtual-fleet run")
	}
	const compression = 120
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
		Sched: sched.Config{
			RebuildEvery:    150 * time.Millisecond,
			MinSamples:      1,
			TimeCompression: compression,
		},
	}
	reg := tenant.NewRegistry(cfg)
	defer reg.Close()
	if _, err := reg.Register(tenant.JobSpec{Name: "served"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tenant.NewServer(reg, false))
	defer srv.Close()

	rep, err := Run(Config{
		BaseURL:         srv.URL,
		Devices:         3000,
		Compression:     compression,
		VirtualDuration: 2 * time.Hour,
		Rounds:          3,
		Seed:            7,
		Batch:           512,
		Think:           60 * time.Second,
		SessionsPerDay:  24,
		Timeout:         90 * time.Second,
		Client:          srv.Client(),
	})
	if err != nil {
		t.Fatalf("vload: %v (report: %+v)", err, rep)
	}
	if rep.RoundsCommitted < 3 {
		t.Fatalf("committed %d rounds, want >= 3", rep.RoundsCommitted)
	}
	if rep.BatchRequests == 0 || rep.CheckIns < int64(rep.Devices) {
		t.Fatalf("registration storm missing: %d check-ins over %d batch requests", rep.CheckIns, rep.BatchRequests)
	}
	if rep.RegisterPerSec <= 0 {
		t.Fatalf("no registration throughput measured: %+v", rep)
	}
	if rep.UpdatesOK < int64(3*cfg.TargetUpdates)-int64(cfg.TargetUpdates) {
		// Rounds close at TargetUpdates; allow the last round's partial.
		t.Errorf("only %d updates accepted across %d rounds", rep.UpdatesOK, rep.RoundsCommitted)
	}

	st := rep.FinalStatus
	if st == nil {
		t.Fatal("no final status snapshot")
	}
	committed := 0
	for _, r := range st.Recent {
		if r.Phase != coord.PhaseCommitted {
			continue
		}
		committed++
		if r.Duration > cfg.RoundDeadline {
			t.Errorf("round %d closed in %s, past its %s wall deadline", r.ID, r.Duration, cfg.RoundDeadline)
		}
	}
	if committed < 3 {
		t.Fatalf("only %d committed rounds in history", committed)
	}
	if st.Counters["task_assigned"] < int64(3*cfg.TargetUpdates) {
		t.Errorf("task_assigned = %d, want >= %d", st.Counters["task_assigned"], 3*cfg.TargetUpdates)
	}
	if st.Counters["checkin_batch"] == 0 {
		t.Error("server saw no batched check-ins")
	}

	sr := st.Scheduler
	if !sr.Enabled || sr.Measured == 0 {
		t.Fatalf("scheduler measured nothing from virtual telemetry: %+v", sr)
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
	fp := sr.Footprint
	if fp.Devices < rep.Devices || fp.RegistryBytesPerDev <= 0 {
		t.Errorf("footprint accounting not live: %+v", fp)
	}
	if rep.RegistryBytesPerDev <= 0 || rep.SchedDevices == 0 {
		t.Errorf("report did not surface footprint: %+v", rep)
	}
	if rep.AchievedCompression <= 0 {
		t.Errorf("achieved compression not measured: %+v", rep)
	}
	t.Logf("virtual fleet: %d rounds, %.0f devices/sec registration, x%.0f/%.0f compression, %d/%d measured, %d remapped, %d B/device registry",
		rep.RoundsCommitted, rep.RegisterPerSec, rep.AchievedCompression, rep.Compression,
		sr.Measured, sr.Devices, sr.Remapped, int(rep.RegistryBytesPerDev))
}

// TestConfigValidation pins the load plane's config contract.
func TestConfigValidation(t *testing.T) {
	if _, err := (Config{}).withDefaults(); err == nil {
		t.Fatal("empty base URL accepted")
	}
	if _, err := (Config{BaseURL: "http://x", Compression: 0.5}).withDefaults(); err == nil {
		t.Fatal("compression below 1 accepted")
	}
	cfg, err := (Config{BaseURL: "http://x/"}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BaseURL != "http://x" || cfg.Compression != 60 ||
		cfg.VirtualDuration != 24*time.Hour || cfg.Batch != 2048 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Client == nil {
		t.Fatalf("defaults left zero fields: %+v", cfg)
	}
	if err := link.Validate(); err != nil {
		t.Fatalf("link model: %v", err)
	}
	// The worker count never exceeds the fleet or the cap of 64.
	if n := workerCount(3); n < 1 || n > 3 {
		t.Fatalf("workerCount(3) = %d", n)
	}
	if n := workerCount(1_000_000); n < 1 || n > 64 {
		t.Fatalf("workerCount(1e6) = %d", n)
	}
}

// TestUpdateBlobRejectsUnknownScheme: a task whose update scheme does not
// parse (none at all included) is an error the worker counts as a net
// error, not an f32 upload.
func TestUpdateBlobRejectsUnknownScheme(t *testing.T) {
	for _, scheme := range []string{"", "bogus"} {
		if blob, err := updateBlob(scheme, 3); err == nil {
			t.Errorf("updateBlob(%q) = %d bytes, want an error", scheme, len(blob))
		}
	}
	if _, err := updateBlob("q8", 3); err != nil {
		t.Fatal(err)
	}
}
