package flint_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/tenant"
)

// TestServingFacade exercises the live serving stack the way an embedder
// would: start a one-job tenant server, as flint-server does, and drive a
// small fleet through one committed round.
func TestServingFacade(t *testing.T) {
	reg := tenant.NewRegistry(coord.Config{
		Mode:          coord.ModeAsync,
		Seed:          1,
		TargetUpdates: 8,
		Quorum:        4,
		RoundDeadline: 5 * time.Second,
	})
	defer reg.Close()
	job, err := reg.Register(tenant.JobSpec{Name: "served"})
	if err != nil {
		t.Fatal(err)
	}
	c := job.Coord
	srv := httptest.NewServer(tenant.NewServer(reg, false))
	defer srv.Close()

	rep, err := fleet.Run(fleet.Config{
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
		t.Fatalf("server version %d < fleet-observed %d", c.Version(), rep.EndVersion)
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
