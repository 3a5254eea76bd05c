package core

import (
	"math"
	"testing"

	"flint/internal/availability"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/model"
	"flint/internal/workflow"
)

// TestEndToEndPipeline exercises the full platform flow the way the Fig 9
// decision workflow composes it: measurement → proxy → criteria-filtered
// simulation → forecasting. This is the repository's primary cross-package
// integration test.
func TestEndToEndPipeline(t *testing.T) {
	seed := int64(77)
	scale := Scale{Clients: 120, TestRecords: 1000, TraceDays: 7, MaxRounds: 12, EvalEvery: 4, MaxShardExamples: 150, SessionsPerDay: 6}
	spec, err := SpecFor(Ads)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Build environment through the criteria.
	env, _, err := BuildEnvironment(spec, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace.NumClients() == 0 {
		t.Fatal("criteria wiped out the trace")
	}

	// 2. Simulate.
	cfg := AsyncConfig(spec, scale, seed)
	rep, err := fedsim.Run(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) == 0 {
		t.Fatal("no rounds")
	}

	// 3. Forecast.
	budget, err := forecast.BudgetFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if budget.ComputeSec <= 0 {
		t.Fatal("no device budget")
	}
	tee, err := forecast.TEELoad(rep, env.UpdateBytes)
	if err != nil {
		t.Fatal(err)
	}
	if tee.BytesPerSec <= 0 {
		t.Fatal("no TEE load")
	}
	series, err := availability.ComputeSeries(env.Trace, 3600)
	if err != nil {
		t.Fatal(err)
	}
	infra, err := forecast.PlanInfra(rep, series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if infra.Workers < 1 {
		t.Fatal("no workers planned")
	}

	// 4. Drive it through the workflow engine.
	wf := &workflow.Workflow{Name: "integration", Steps: []workflow.Step{
		{Name: "sim", Run: func(c *workflow.Context) (string, bool, error) {
			c.Put("report", rep)
			return "ok", rep.TotalSucceeded > 0, nil
		}},
		{Name: "budget", Run: func(c *workflow.Context) (string, bool, error) {
			return "ok", budget.WastedFraction < 0.9, nil
		}},
	}}
	out, err := wf.Run(workflow.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Go {
		t.Fatalf("integration workflow blocked: %+v", out.Results)
	}
}

// TestCaseStudyMessagingLearns runs the messaging domain at small scale and
// asserts the FL path moves above chance (full parity needs the bench-scale
// round budget; see testdata/transcripts/).
func TestCaseStudyMessagingLearns(t *testing.T) {
	scale := tinyScale
	scale.MaxRounds = 40
	scale.EvalEvery = 10
	scale.SessionsPerDay = 6
	res, err := RunCaseStudy(Messaging, scale, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseRate <= 0 {
		t.Fatal("missing base rate")
	}
	if res.FLMetric <= res.BaseRate {
		t.Fatalf("messaging FL at chance: %v vs base %v", res.FLMetric, res.BaseRate)
	}
	if res.CentralizedMetric <= res.BaseRate+0.05 {
		t.Fatalf("messaging centralized too weak: %v", res.CentralizedMetric)
	}
}

// TestBenchRounds covers the per-domain budget helper.
func TestBenchRounds(t *testing.T) {
	if BenchRounds(Messaging) <= BenchRounds(Ads) {
		t.Fatal("messaging needs a larger round budget than ads")
	}
	if BenchRounds(Search) <= 0 {
		t.Fatal("search budget must be positive")
	}
}

// TestCompareModesSearch covers Table 3's search column path (NDCG metric).
func TestCompareModesSearch(t *testing.T) {
	scale := tinyScale
	scale.MaxRounds = 10
	cmp, err := CompareModes(Search, scale, 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cmp.SpeedUp) || cmp.SpeedUp <= 0 {
		t.Fatalf("speedup %v", cmp.SpeedUp)
	}
	if cmp.TargetMetric <= 0 {
		t.Fatalf("target %v", cmp.TargetMetric)
	}
}

// TestSpecServerLRDefaults: domains without an explicit server LR get 1.
func TestSpecServerLRDefaults(t *testing.T) {
	adsSpec, _ := SpecFor(Ads)
	cfg := AsyncConfig(adsSpec, tinyScale, 1)
	if cfg.ServerLR != 1 {
		t.Fatalf("ads server lr %v", cfg.ServerLR)
	}
	msgSpec, _ := SpecFor(Messaging)
	cfg2 := AsyncConfig(msgSpec, tinyScale, 1)
	if cfg2.ServerLR != 4 {
		t.Fatalf("messaging server lr %v", cfg2.ServerLR)
	}
	if _, err := model.New(msgSpec.Kind, 1); err != nil {
		t.Fatal(err)
	}
}
