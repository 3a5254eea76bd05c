package flint_test

import (
	"math"
	"testing"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/core"
	"flint/internal/device"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/model"
	"flint/internal/network"
)

// TestPublicAPIQuickstart drives the offline packages end to end the way
// the examples do: spec → environment → simulation → forecasts.
func TestPublicAPIQuickstart(t *testing.T) {
	scale := core.Scale{
		Clients: 100, TestRecords: 800, TraceDays: 7,
		MaxRounds: 6, EvalEvery: 3, MaxShardExamples: 120, SessionsPerDay: 6,
	}
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		t.Fatal(err)
	}
	env, gen, err := core.BuildEnvironment(spec, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumClients() != 100 {
		t.Fatalf("clients %d", gen.NumClients())
	}
	rep, err := fedsim.Run(core.AsyncConfig(spec, scale, 1), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 6 {
		t.Fatalf("rounds %d", len(rep.Rounds))
	}
	budget, err := forecast.BudgetFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if budget.ComputeSec <= 0 {
		t.Fatal("no compute accounted")
	}
	tee, err := forecast.TEELoad(rep, env.UpdateBytes)
	if err != nil {
		t.Fatal(err)
	}
	if tee.UpdatesPerSec <= 0 {
		t.Fatal("no TEE load")
	}
}

// TestPublicAPIMeasurement covers the availability and device tooling.
func TestPublicAPIMeasurement(t *testing.T) {
	sessions, err := availability.GenerateLog(availability.DefaultLogConfig(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := availability.ComputeTable1(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Intersect <= 0 || t1.Intersect >= 1 {
		t.Fatalf("intersection %v", t1.Intersect)
	}
	eligible := availability.Apply(sessions, availability.Criteria{RequireWiFi: true})
	if len(eligible) >= len(sessions) {
		t.Fatal("criteria must filter")
	}
	trace := availability.BuildTrace(eligible)
	series, err := availability.ComputeSeries(trace, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if series.Peak <= 0 {
		t.Fatal("empty series")
	}
	pool := device.BenchPool()
	if len(pool) != 27 {
		t.Fatalf("pool %d", len(pool))
	}
	rows, err := device.Table5(pool, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
}

// TestPublicAPIModels covers the model zoo, the bandwidth model and the
// privacy accountant.
func TestPublicAPIModels(t *testing.T) {
	for _, k := range []model.Kind{model.KindA, model.KindB, model.KindC, model.KindD, model.KindE} {
		m, err := model.New(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumParams() <= 0 {
			t.Fatalf("model %s empty", k)
		}
	}
	if err := network.Default.Validate(); err != nil {
		t.Fatal(err)
	}
	eps, err := aggregator.EpsilonApprox(1, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(eps) || eps <= 0 {
		t.Fatalf("epsilon %v", eps)
	}
}
