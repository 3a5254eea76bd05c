package availability

import "testing"

// TestCriteriaMonotonicity: adding criteria can only shrink the admitted
// set.
func TestCriteriaMonotonicity(t *testing.T) {
	log, err := GenerateLog(DefaultLogConfig(400, 17))
	if err != nil {
		t.Fatal(err)
	}
	prev := len(log)
	chain := []Criteria{
		{RequireWiFi: true},
		{RequireWiFi: true, RequireBatteryHigh: true},
		{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true},
		{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true, MinSessionSec: 120},
	}
	for i, c := range chain {
		got := len(Apply(log, c))
		if got > prev {
			t.Fatalf("criterion %d grew the admitted set: %d > %d", i, got, prev)
		}
		prev = got
	}
}

// TestIntersectionBoundedByMarginals: P(A∩B∩C) <= min of the marginals.
func TestIntersectionBoundedByMarginals(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		log, err := GenerateLog(DefaultLogConfig(500, seed))
		if err != nil {
			t.Fatal(err)
		}
		t1, err := ComputeTable1(log)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []float64{t1.WiFi, t1.Battery, t1.ModernOS} {
			if t1.Intersect > m+1e-12 {
				t.Fatalf("intersection %v exceeds marginal %v", t1.Intersect, m)
			}
		}
	}
}

// TestSeriesNormalization: every bucket lies in [0,1] with at least one 1.
func TestSeriesNormalization(t *testing.T) {
	log, err := GenerateLog(DefaultLogConfig(600, 23))
	if err != nil {
		t.Fatal(err)
	}
	series, err := ComputeSeries(BuildTrace(log), 1800)
	if err != nil {
		t.Fatal(err)
	}
	sawPeak := false
	for _, v := range series.Normalized {
		if v < 0 || v > 1 {
			t.Fatalf("bucket %v outside [0,1]", v)
		}
		if v == 1 {
			sawPeak = true
		}
	}
	if !sawPeak {
		t.Fatal("normalized series must contain its peak")
	}
}

// TestTraceWindowsMatchSessions: BuildTrace must not invent or drop windows.
func TestTraceWindowsMatchSessions(t *testing.T) {
	log, err := GenerateLog(DefaultLogConfig(100, 29))
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildTrace(log)
	if len(tr.Windows()) != len(log) {
		t.Fatalf("trace has %d windows for %d sessions", len(tr.Windows()), len(log))
	}
	var perClient int
	for id := int64(0); id < 100; id++ {
		perClient += len(tr.ClientWindows(id))
	}
	if perClient != len(log) {
		t.Fatalf("per-client windows (%d) disagree with log (%d)", perClient, len(log))
	}
}
