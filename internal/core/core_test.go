package core

import (
	"math"
	"testing"

	"flint/internal/model"
)

// tinyScale keeps core tests fast.
var tinyScale = Scale{Clients: 90, TestRecords: 900, TraceDays: 5, MaxRounds: 14, EvalEvery: 4, MaxShardExamples: 120}

func TestSpecsResolve(t *testing.T) {
	for _, d := range Domains {
		spec, err := SpecFor(d)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Kind == "" || spec.Metric == "" || spec.Schedule == nil {
			t.Fatalf("incomplete spec for %s: %+v", d, spec)
		}
	}
	if _, err := SpecFor(Domain("gaming")); err == nil {
		t.Fatal("unknown domain must fail")
	}
	if _, err := NewGenerator(Domain("gaming"), tinyScale, 1); err == nil {
		t.Fatal("unknown generator must fail")
	}
}

func TestModelAssignmentsMatchPaper(t *testing.T) {
	// §4 picks model B for ads, C for messaging, A (low-latency) for search.
	checks := map[Domain]model.Kind{Ads: model.KindB, Messaging: model.KindC, Search: model.KindA}
	for d, want := range checks {
		spec, err := SpecFor(d)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Kind != want {
			t.Fatalf("%s uses %s, paper uses %s", d, spec.Kind, want)
		}
	}
}

func TestBuildEnvironment(t *testing.T) {
	spec, _ := SpecFor(Ads)
	env, gen, err := BuildEnvironment(spec, tinyScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if gen.NumClients() != tinyScale.Clients {
		t.Fatalf("generator clients %d", gen.NumClients())
	}
	if env.EvalSet.Len() < tinyScale.TestRecords {
		t.Fatalf("eval set %d", env.EvalSet.Len())
	}
}

func TestRunCaseStudyAds(t *testing.T) {
	res, err := RunCaseStudy(Ads, tinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseRate <= 0 {
		t.Fatal("base rate missing for an AUPR domain")
	}
	// Both trainers must beat chance-level AUPR (= the base rate).
	if res.CentralizedMetric <= res.BaseRate+0.04 {
		t.Fatalf("centralized AUPR %v barely above base rate %v", res.CentralizedMetric, res.BaseRate)
	}
	if res.FLMetric <= res.BaseRate+0.01 {
		t.Fatalf("FL AUPR %v at chance level (base %v)", res.FLMetric, res.BaseRate)
	}
	if res.TrainingVTimeSec <= 0 {
		t.Fatal("no training time recorded")
	}
	// Table 4's shape: FL within ±60% of centralized at this tiny scale
	// (the paper's percent-level parity needs production-scale rounds).
	if math.Abs(res.PerfDiffPct) > 60 {
		t.Fatalf("perf diff %v%% implausibly large", res.PerfDiffPct)
	}
}

func TestRunCaseStudySearchUsesNDCG(t *testing.T) {
	res, err := RunCaseStudy(Search, tinyScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != model.MetricNDCG {
		t.Fatalf("metric %s", res.Metric)
	}
	if res.FLMetric <= 0 || res.FLMetric > 1 {
		t.Fatalf("NDCG %v out of range", res.FLMetric)
	}
}

func TestCompareModes(t *testing.T) {
	cmp, err := CompareModes(Ads, tinyScale, 9, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SpeedUp <= 0 {
		t.Fatalf("speedup %v", cmp.SpeedUp)
	}
	if cmp.AsyncTasksStarted <= 0 || cmp.AsyncComputeSec <= 0 {
		t.Fatalf("async accounting: %+v", cmp)
	}
	if cmp.SyncReport == nil || cmp.AsyncReport == nil {
		t.Fatal("reports missing")
	}
	if _, err := CompareModes(Ads, tinyScale, 9, 0); err == nil {
		t.Fatal("bad headroom must fail")
	}
}

func TestRunLRStudy(t *testing.T) {
	scale := tinyScale
	scale.MaxRounds = 8
	schedules := []model.Schedule{
		model.ExpDecayLR{Base: 0.12, Rate: 0.9, DecaySteps: 10},
		model.ExpDecayLR{Base: 0.5, Rate: 0.98, DecaySteps: 10},
	}
	out, err := RunLRStudy(scale, schedules, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("schedules in study: %d", len(out))
	}
	for name, trials := range out {
		if len(trials) != 2 {
			t.Fatalf("%s trials: %d", name, len(trials))
		}
		for _, tr := range trials {
			if len(tr.Metrics) == 0 {
				t.Fatalf("%s produced no metric series", name)
			}
		}
	}
	if _, err := RunLRStudy(scale, schedules, 0, 1); err == nil {
		t.Fatal("zero trials must fail")
	}
}
