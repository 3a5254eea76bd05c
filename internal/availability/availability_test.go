package availability

import (
	"math"
	"testing"
)

func testLog(t *testing.T, clients int, seed int64) []Session {
	t.Helper()
	log, err := GenerateLog(DefaultLogConfig(clients, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("empty log")
	}
	return log
}

func TestGenerateLogBasics(t *testing.T) {
	log := testLog(t, 300, 1)
	horizon := 14.0 * 86400
	for i, s := range log {
		if s.Start < 0 || s.Start > horizon+3600 {
			t.Fatalf("session %d start %v outside log window", i, s.Start)
		}
		if s.End <= s.Start {
			t.Fatalf("session %d non-positive duration", i)
		}
		if s.Device == "" {
			t.Fatal("session missing device")
		}
		if i > 0 && log[i].Start < log[i-1].Start {
			t.Fatal("log must be sorted by start")
		}
	}
}

func TestGenerateLogValidation(t *testing.T) {
	bad := DefaultLogConfig(0, 1)
	if _, err := GenerateLog(bad); err == nil {
		t.Fatal("zero clients must fail")
	}
	b2 := DefaultLogConfig(10, 1)
	b2.Days = 0
	if _, err := GenerateLog(b2); err == nil {
		t.Fatal("zero days must fail")
	}
	b3 := DefaultLogConfig(10, 1)
	b3.WiFiProb = 1.5
	if _, err := GenerateLog(b3); err == nil {
		t.Fatal("bad probability must fail")
	}
}

func TestTable1Marginals(t *testing.T) {
	log := testLog(t, 2000, 7)
	tab, err := ComputeTable1(log)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1: WiFi 70%, battery 34%, modern OS 93%, A∩B∩C 22%.
	if math.Abs(tab.WiFi-0.70) > 0.05 {
		t.Fatalf("WiFi %v far from 0.70", tab.WiFi)
	}
	if math.Abs(tab.Battery-0.34) > 0.05 {
		t.Fatalf("battery %v far from 0.34", tab.Battery)
	}
	if math.Abs(tab.ModernOS-0.93) > 0.05 {
		t.Fatalf("modern OS %v far from 0.93", tab.ModernOS)
	}
	if math.Abs(tab.Intersect-0.22) > 0.06 {
		t.Fatalf("intersection %v far from 0.22", tab.Intersect)
	}
	if _, err := ComputeTable1(nil); err == nil {
		t.Fatal("empty log must error")
	}
}

func TestCriteriaAdmit(t *testing.T) {
	s := Session{Device: "Pixel-6", WiFi: true, BatteryHigh: true, ModernOS: true, Start: 0, End: 300}
	all := Criteria{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true}
	if !all.Admit(s) {
		t.Fatal("should admit fully-qualified session")
	}
	s2 := s
	s2.WiFi = false
	if all.Admit(s2) {
		t.Fatal("must reject non-WiFi")
	}
	s3 := s
	s3.BatteryHigh = false
	if all.Admit(s3) {
		t.Fatal("must reject low battery")
	}
	s4 := s
	s4.ModernOS = false
	if all.Admit(s4) {
		t.Fatal("must reject old OS")
	}
	short := Criteria{MinSessionSec: 600}
	if short.Admit(s) {
		t.Fatal("must reject short session")
	}
}

func TestApplyShrinksLog(t *testing.T) {
	log := testLog(t, 500, 3)
	strict := Apply(log, Criteria{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true})
	if len(strict) == 0 || len(strict) >= len(log) {
		t.Fatalf("criteria should strictly shrink: %d -> %d", len(log), len(strict))
	}
	frac := float64(len(strict)) / float64(len(log))
	if frac < 0.10 || frac > 0.40 {
		t.Fatalf("restrictive scenario keeps %v, paper keeps 22%%", frac)
	}
}

func TestMergeGaps(t *testing.T) {
	base := []Session{
		{ClientID: 1, Start: 0, End: 100},
		{ClientID: 1, Start: 110, End: 200}, // 10s gap: merge
		{ClientID: 1, Start: 500, End: 600}, // 300s gap: split
		{ClientID: 2, Start: 605, End: 700}, // different client: never merge
	}
	out := MergeGaps(base, 30)
	if len(out) != 3 {
		t.Fatalf("got %d sessions, want 3", len(out))
	}
	if out[0].End != 200 {
		t.Fatalf("merged session must extend to 200, got %v", out[0].End)
	}
	if out[1].Start != 500 || out[2].ClientID != 2 {
		t.Fatalf("split/client separation broken: %+v", out)
	}
	if MergeGaps(nil, 10) != nil {
		t.Fatal("empty input must return nil")
	}
}

func TestTraceAndSeries(t *testing.T) {
	log := testLog(t, 1500, 5)
	eligible := Apply(log, Criteria{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true})
	tr := BuildTrace(eligible)
	if tr.NumClients() == 0 || tr.Horizon() <= 0 {
		t.Fatal("empty trace")
	}
	// Windows sorted by start.
	ws := tr.Windows()
	for i := 1; i < len(ws); i++ {
		if ws[i].Start < ws[i-1].Start {
			t.Fatal("trace windows must be sorted")
		}
	}
	// AvailableAt agrees with a window's interior.
	w := ws[0]
	mid := (w.Start + w.End) / 2
	if !tr.AvailableAt(w.ClientID, mid) {
		t.Fatal("client must be available mid-window")
	}
	if tr.AvailableAt(w.ClientID, tr.Horizon()+10) {
		t.Fatal("client must be unavailable past horizon")
	}

	series, err := ComputeSeries(tr, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if series.Peak == 0 {
		t.Fatal("zero peak")
	}
	// Fig 2: strong fluctuation. The paper reports troughs at ~15% of the
	// weekly peak pre-criteria and 14x post-criteria; require at least 4x.
	if r := series.PeakTroughRatio(); r < 4 {
		t.Fatalf("peak/trough ratio %v too flat for Fig 2", r)
	}
	if _, err := ComputeSeries(tr, 0); err == nil {
		t.Fatal("zero bucket must error")
	}
	if _, err := ComputeSeries(BuildTrace(nil), 60); err == nil {
		t.Fatal("empty trace must error")
	}
}

func TestDiurnalShapeInSeries(t *testing.T) {
	// Availability at 3am must be well below availability at 7pm.
	log := testLog(t, 2000, 9)
	tr := BuildTrace(log)
	series, err := ComputeSeries(tr, 3600)
	if err != nil {
		t.Fatal(err)
	}
	// Average the same hour across days.
	hourMean := make([]float64, 24)
	hourN := make([]int, 24)
	for i, v := range series.Normalized {
		h := i % 24
		hourMean[h] += v
		hourN[h]++
	}
	for h := range hourMean {
		if hourN[h] > 0 {
			hourMean[h] /= float64(hourN[h])
		}
	}
	if hourMean[3] >= hourMean[19]*0.5 {
		t.Fatalf("3am availability %v should be far below 7pm %v", hourMean[3], hourMean[19])
	}
}

func TestWeeklyPeriodicityWeekendDip(t *testing.T) {
	log := testLog(t, 3000, 11)
	tr := BuildTrace(log)
	series, err := ComputeSeries(tr, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Normalized) < 14 {
		t.Fatalf("series too short: %d days", len(series.Normalized))
	}
	weekday := (series.Normalized[0] + series.Normalized[1] + series.Normalized[2]) / 3
	weekend := (series.Normalized[5] + series.Normalized[6]) / 2
	if weekend >= weekday {
		t.Fatalf("weekend %v should dip below weekday %v", weekend, weekday)
	}
}

func TestClientWindowsSorted(t *testing.T) {
	log := testLog(t, 200, 13)
	tr := BuildTrace(log)
	for id := int64(0); id < 200; id++ {
		ws := tr.ClientWindows(id)
		for i := 1; i < len(ws); i++ {
			if ws[i].Start < ws[i-1].Start {
				t.Fatal("client windows must be sorted")
			}
		}
	}
}
