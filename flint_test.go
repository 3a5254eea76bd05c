package flint_test

import (
	"math"
	"testing"

	"flint"
)

// TestPublicAPIQuickstart exercises the facade end to end the way the
// examples do: spec → environment → simulation → forecasts.
func TestPublicAPIQuickstart(t *testing.T) {
	scale := flint.Scale{
		Clients: 100, TestRecords: 800, TraceDays: 7,
		MaxRounds: 6, EvalEvery: 3, MaxShardExamples: 120, SessionsPerDay: 6,
	}
	spec, err := flint.SpecFor(flint.Ads)
	if err != nil {
		t.Fatal(err)
	}
	env, gen, err := flint.BuildEnvironment(spec, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumClients() != 100 {
		t.Fatalf("clients %d", gen.NumClients())
	}
	rep, err := flint.RunSimulation(flint.AsyncConfig(spec, scale, 1), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 6 {
		t.Fatalf("rounds %d", len(rep.Rounds))
	}
	budget, err := flint.ForecastDeviceBudget(rep)
	if err != nil {
		t.Fatal(err)
	}
	if budget.ComputeSec <= 0 {
		t.Fatal("no compute accounted")
	}
	tee, err := flint.ForecastTEELoad(rep, env.UpdateBytes)
	if err != nil {
		t.Fatal(err)
	}
	if tee.UpdatesPerSec <= 0 {
		t.Fatal("no TEE load")
	}
}

// TestPublicAPIMeasurement covers the availability and device facades.
func TestPublicAPIMeasurement(t *testing.T) {
	sessions, err := flint.GenerateSessionLog(flint.DefaultSessionLog(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := flint.ComputeTable1(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Intersect <= 0 || t1.Intersect >= 1 {
		t.Fatalf("intersection %v", t1.Intersect)
	}
	eligible := flint.ApplyCriteria(sessions, flint.Criteria{RequireWiFi: true})
	if len(eligible) >= len(sessions) {
		t.Fatal("criteria must filter")
	}
	trace := flint.BuildTrace(eligible)
	series, err := flint.ComputeAvailabilitySeries(trace, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if series.Peak <= 0 {
		t.Fatal("empty series")
	}
	pool := flint.BenchDevicePool()
	if len(pool) != 27 {
		t.Fatalf("pool %d", len(pool))
	}
	rows, err := flint.RunDeviceBenchmarks(pool, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
}

// TestPublicAPIModels covers the model-zoo facade.
func TestPublicAPIModels(t *testing.T) {
	for _, k := range []flint.ModelKind{flint.ModelA, flint.ModelB, flint.ModelC, flint.ModelD, flint.ModelE} {
		m, err := flint.NewModel(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumParams() <= 0 {
			t.Fatalf("model %s empty", k)
		}
	}
	if err := flint.DefaultBandwidth.Validate(); err != nil {
		t.Fatal(err)
	}
	eps, err := flint.EpsilonApprox(1, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(eps) || eps <= 0 {
		t.Fatalf("epsilon %v", eps)
	}
}
