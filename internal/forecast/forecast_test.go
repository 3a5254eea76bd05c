package forecast

import (
	"math"
	"testing"

	"flint/internal/availability"
	"flint/internal/fedsim"
)

func sampleReport() *fedsim.Report {
	return &fedsim.Report{
		Mode:            fedsim.Async,
		TotalStarted:    610_000,
		TotalSucceeded:  610_000,
		TotalComputeSec: 620 * 3600, // 25.9 days of client compute (§3.5)
		FinalVTime:      48 * 3600,
	}
}

func TestBudgetFromReport(t *testing.T) {
	rep := sampleReport()
	rep.TotalStragglers = 61_000
	b, err := BudgetFromReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if b.ComputeSec != 620*3600 {
		t.Fatalf("compute %v", b.ComputeSec)
	}
	if math.Abs(b.WastedFraction-0.1) > 1e-9 {
		t.Fatalf("wasted %v", b.WastedFraction)
	}
	if b.EnergyWh <= 0 {
		t.Fatal("energy must be positive")
	}
	if _, err := BudgetFromReport(nil); err == nil {
		t.Fatal("nil report must fail")
	}
}

func TestTEELoadMatchesPaperMath(t *testing.T) {
	// §3.5: 610k tasks / 48h → 3.53 upd/s; × 0.76 MB → 2.68 MB/s.
	th, err := TEELoad(sampleReport(), 760_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th.UpdatesPerSec-3.53) > 0.02 {
		t.Fatalf("upd/s %v", th.UpdatesPerSec)
	}
	if math.Abs(th.BytesPerSec/1e6-2.68) > 0.02 {
		t.Fatalf("MB/s %v", th.BytesPerSec/1e6)
	}
	if _, err := TEELoad(nil, 1); err == nil {
		t.Fatal("nil report must fail")
	}
	if _, err := TEELoad(&fedsim.Report{}, 1); err == nil {
		t.Fatal("zero vtime must fail")
	}
}

func TestPlanInfra(t *testing.T) {
	series := availability.Series{Normalized: []float64{0.1, 0.5, 1.0, 0.4}}
	plan, err := PlanInfra(sampleReport(), series, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PeakToMean <= 1 {
		t.Fatalf("peak/mean %v must exceed 1 for a fluctuating load", plan.PeakToMean)
	}
	if plan.PeakUpdatesPerSec <= plan.MeanUpdatesPerSec {
		t.Fatal("peak must exceed mean")
	}
	if plan.Workers < 1 {
		t.Fatalf("workers %d", plan.Workers)
	}
	// Flat load → multiplier 1.
	flat := availability.Series{Normalized: []float64{1, 1, 1}}
	p2, err := PlanInfra(sampleReport(), flat, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2.PeakToMean-1) > 1e-9 {
		t.Fatalf("flat peak/mean %v", p2.PeakToMean)
	}
	if _, err := PlanInfra(sampleReport(), series, 0); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := PlanInfra(nil, series, 1); err == nil {
		t.Fatal("nil report must fail")
	}
}
