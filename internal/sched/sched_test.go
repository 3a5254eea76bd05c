package sched

import (
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/tensor"
	"flint/internal/transport"
)

func mustNew(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != 0.3 || cfg.LowBWBps != 187_500 || cfg.MinSamples != 2 ||
		cfg.MaxOverCommit != 3 || cfg.DeadlineSlack != 0.8 ||
		cfg.RebuildEvery != 2*time.Second || cfg.ProbeEvery != 8 || cfg.MinCensus != 8 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	for _, bad := range []Config{
		{Alpha: 1.5},
		{Alpha: -0.1},
		{LowBWBps: -1},
		{MaxOverCommit: 0.5},
		{DeadlineSlack: 1.2},
	} {
		if _, err := bad.WithDefaults(); err == nil {
			t.Errorf("config %+v validated", bad)
		}
	}
}

func TestTelemetryEWMA(t *testing.T) {
	// Every value below is exact in float32, the state's storage width.
	var st TelemetryState
	st.ObserveUplink(1000, time.Second, 0.5)
	if tel := st.Telemetry(); tel.UpBps != 1000 || tel.UpSamples != 1 {
		t.Fatalf("seed observation: %+v", tel)
	}
	st.ObserveUplink(3000, time.Second, 0.5)
	if tel := st.Telemetry(); tel.UpBps != 2000 {
		t.Fatalf("EWMA blend: got %v, want 2000", tel.UpBps)
	}
	// A zero-duration loopback observation must not produce +Inf.
	st.ObserveDownlink(500, 0, 0.5)
	if tel := st.Telemetry(); tel.DownBps <= 0 || tel.DownBps > 500/minTransfer.Seconds()+1 {
		t.Fatalf("floored transfer produced %v B/s", tel.DownBps)
	}
	// Zero-byte and zero-duration task observations are dropped.
	st.ObserveUplink(0, time.Second, 0.5)
	if tel := st.Telemetry(); tel.UpSamples != 2 {
		t.Fatalf("zero-byte observation counted: %+v", tel)
	}
	st.ObserveTask(2*time.Second, 0.5)
	st.ObserveTask(0, 0.5)
	if tel := st.Telemetry(); tel.TaskSamples != 1 || tel.TaskSec != 2 {
		t.Fatalf("task EWMA: %+v", tel)
	}
	// Sample counts are uint16 and saturate instead of wrapping.
	var sat TelemetryState
	for i := 0; i < 1<<16; i++ {
		sat.ObserveTask(time.Second, 0.5)
	}
	if tel := sat.Telemetry(); tel.TaskSamples != 65535 || tel.TaskSec != 1 {
		t.Fatalf("saturation: %+v", tel)
	}
}

func TestAdmitDeadlineGate(t *testing.T) {
	s := mustNew(t, Config{DeadlineSlack: 0.8})
	est := TaskEstimate{DownBytes: 1_000_000, UpBytes: 1_000_000}
	fast := Telemetry{DownBps: 1e6, UpBps: 1e6, DownSamples: 3, UpSamples: 3}
	slow := Telemetry{DownBps: 1e4, UpBps: 1e4, DownSamples: 3, UpSamples: 3}

	// fast: 2s estimate fits a 10s window (8s after slack).
	if !s.Admit(fast, 10*time.Second, est) {
		t.Error("fast device rejected")
	}
	// slow: 200s estimate does not.
	if s.Admit(slow, 10*time.Second, est) {
		t.Error("slow device admitted")
	}
	// Unmeasured devices are admitted optimistically.
	if !s.Admit(Telemetry{}, time.Second, est) {
		t.Error("unmeasured device rejected")
	}
	// Reported training time counts against the window.
	trained := fast
	trained.TaskSec, trained.TaskSamples = 30, 2
	if s.Admit(trained, 10*time.Second, est) {
		t.Error("long-training device admitted")
	}
	// Disabled scheduler admits everyone.
	off := mustNew(t, Config{Disable: true})
	if !off.Admit(slow, 10*time.Second, est) {
		t.Error("disabled scheduler rejected a device")
	}
	// Below MinSamples the EWMAs are untrusted in every decision: the
	// gate admits exactly like the unmeasured case.
	under := slow
	under.DownSamples, under.UpSamples = 1, 1
	if !s.Admit(under, 10*time.Second, est) {
		t.Error("under-sampled device rejected")
	}
}

func TestProbeDue(t *testing.T) {
	s := mustNew(t, Config{ProbeEvery: 3})
	// Threshold semantics: once the streak crosses ProbeEvery it stays
	// armed (a probe that loses the assignment race must retry on the
	// next request, not wait out another full streak).
	for n, want := range map[int]bool{1: false, 2: false, 3: true, 4: true, 6: true} {
		if got := s.ProbeDue(n); got != want {
			t.Errorf("ProbeDue(%d) = %v, want %v", n, got, want)
		}
	}
	if off := mustNew(t, Config{ProbeEvery: -1}); off.ProbeDue(8) {
		t.Error("disabled probing still fires")
	}
}

func TestRebuildCohortMapOverridesRadioLabel(t *testing.T) {
	s := mustNew(t, Config{LowBWBps: 100_000, MinSamples: 2})
	devs := []DeviceSample{
		// Slow "WiFi" device: measured below threshold → lowbw.
		{ID: 1, WiFi: true, Eligible: true, Tel: Telemetry{DownBps: 20_000, UpBps: 20_000, DownSamples: 3, UpSamples: 3}},
		// Fast "cellular" device: measured above threshold → default.
		{ID: 2, WiFi: false, Eligible: true, Tel: Telemetry{DownBps: 2e6, UpBps: 1e6, DownSamples: 3, UpSamples: 3}},
		// Unmeasured cellular device: radio label wins.
		{ID: 3, WiFi: false, Eligible: true},
		// One sample is below MinSamples: radio label wins.
		{ID: 4, WiFi: true, Eligible: true, Tel: Telemetry{DownBps: 10, UpBps: 10, DownSamples: 1, UpSamples: 1}},
	}
	s.Rebuild(devs, 10*time.Second,
		map[string]TaskEstimate{transport.CohortDefault: {DownBytes: 1000, UpBytes: 1000}})

	if got := s.Cohort(1); got != transport.CohortLowBW {
		t.Errorf("slow WiFi device: cohort %q, want lowbw", got)
	}
	if got := s.Cohort(2); got != transport.CohortDefault {
		t.Errorf("fast cellular device: cohort %q, want default", got)
	}
	if got := s.Cohort(3); got != "" {
		t.Errorf("unmeasured device mapped to %q, want radio-label fallback", got)
	}
	if got := s.Cohort(4); got != "" {
		t.Errorf("under-sampled device mapped to %q, want radio-label fallback", got)
	}
	rep := s.Report()
	if rep.Devices != 4 || rep.Measured != 2 || rep.Remapped != 2 {
		t.Errorf("report census: %+v", rep)
	}
	if rep.Cohorts[transport.CohortDefault].Devices != 2 || rep.Cohorts[transport.CohortLowBW].Devices != 2 {
		t.Errorf("cohort sizes: default=%+v lowbw=%+v",
			rep.Cohorts[transport.CohortDefault], rep.Cohorts[transport.CohortLowBW])
	}
	// The fast device (16 Mbps) lands in the 8-16 or 16-32 bucket — check
	// total measured histogram mass instead of pinning the bucket.
	sum := 0
	for _, n := range rep.Cohorts[transport.CohortDefault].BandwidthHist {
		sum += n
	}
	if sum != 1 {
		t.Errorf("default cohort histogram mass %d, want 1", sum)
	}
	if len(BucketLabels()) != len(rep.Cohorts[transport.CohortDefault].BandwidthHist) {
		t.Errorf("bucket labels (%d) misaligned with histogram (%d)",
			len(BucketLabels()), len(rep.Cohorts[transport.CohortDefault].BandwidthHist))
	}
}

func TestOverCommitFromStragglerTail(t *testing.T) {
	s := mustNew(t, Config{MaxOverCommit: 3, DeadlineSlack: 1, MinCensus: 2})
	// Before any rebuild: base passes through.
	if got := s.OverCommit(1.3); got != 1.3 {
		t.Fatalf("pre-rebuild over-commit %v", got)
	}
	est := map[string]TaskEstimate{
		transport.CohortDefault: {DownBytes: 100_000, UpBytes: 100_000},
	}
	mk := func(id int64, bps float64) DeviceSample {
		return DeviceSample{ID: id, WiFi: true, Eligible: true,
			Tel: Telemetry{DownBps: bps, UpBps: bps, DownSamples: 3, UpSamples: 3}}
	}
	// 2 of 4 eligible devices finish a 200k-byte task inside 10s: the
	// fast pair needs ~2s, the slow pair ~2000s.
	devs := []DeviceSample{mk(1, 1e5), mk(2, 1e5), mk(3, 100), mk(4, 100)}
	s.Rebuild(devs, 10*time.Second, est)
	if got := s.OverCommit(1.0); got != 2.0 {
		t.Errorf("half-on-time fleet: over-commit %v, want 2.0", got)
	}
	rep := s.Report()
	if rep.OnTimeFraction != 0.5 || rep.OverCommitScale != 2.0 {
		t.Errorf("report: on-time %v scale %v", rep.OnTimeFraction, rep.OverCommitScale)
	}
	if rep.EstTaskP50Sec <= 0 || rep.EstTaskP99Sec < rep.EstTaskP50Sec {
		t.Errorf("straggler quantiles: p50=%v p99=%v", rep.EstTaskP50Sec, rep.EstTaskP99Sec)
	}
	// The cap bounds a mostly-slow fleet.
	devs = []DeviceSample{mk(1, 1e5), mk(2, 100), mk(3, 100), mk(4, 100)}
	s.Rebuild(devs, 10*time.Second, est)
	if got := s.OverCommit(1.0); got != 3.0 {
		t.Errorf("capped over-commit %v, want 3.0", got)
	}
	// The scale never pulls below the configured base.
	devs = []DeviceSample{mk(1, 1e5), mk(2, 1e5)}
	s.Rebuild(devs, 10*time.Second, est)
	if got := s.OverCommit(1.3); got != 1.3 {
		t.Errorf("all-on-time fleet: over-commit %v, want base 1.3", got)
	}
	// Below the census floor the scale stays at the base: one cold-start
	// straggler must not triple the fleet's budget.
	s.Rebuild([]DeviceSample{mk(3, 100)}, 10*time.Second, est)
	if got := s.OverCommit(1.0); got != 1.0 {
		t.Errorf("n=1 census moved over-commit to %v", got)
	}
	if rep := s.Report(); rep.OnTimeFraction != 0 {
		t.Errorf("n=1 census on-time fraction %v, want 0 reported", rep.OnTimeFraction)
	}
}

// TestRebuildUsesCohortEstimates: a slow device is costed with its own
// cohort's (sparse, small) wire schemes, not the default cohort's dense
// ones — otherwise every lowbw device would be miscounted as a straggler
// and over-commit would inflate for rounds that actually close on time.
func TestRebuildUsesCohortEstimates(t *testing.T) {
	s := mustNew(t, Config{LowBWBps: 1e6, MinSamples: 1, DeadlineSlack: 1})
	devs := []DeviceSample{{ID: 1, WiFi: true, Eligible: true,
		Tel: Telemetry{DownBps: 1e4, UpBps: 1e4, DownSamples: 2, UpSamples: 2}}}
	ests := map[string]TaskEstimate{
		// Default task: 5 MB → 500 s at 10 KB/s, hopeless. LowBW task:
		// 25 KB each way → 5 s, comfortably inside the 10 s window.
		transport.CohortDefault: {DownBytes: 5_000_000, UpBytes: 5_000_000},
		transport.CohortLowBW:   {DownBytes: 25_000, UpBytes: 25_000},
	}
	s.Rebuild(devs, 10*time.Second, ests)
	rep := s.Report()
	if s.Cohort(1) != transport.CohortLowBW {
		t.Fatalf("device not in lowbw cohort: %q", s.Cohort(1))
	}
	if rep.OnTimeFraction != 1 {
		t.Fatalf("on-time fraction %v, want 1 (device costed with the wrong cohort's schemes?)", rep.OnTimeFraction)
	}
	if got := s.OverCommit(1.0); got != 1.0 {
		t.Fatalf("over-commit %v, want 1.0", got)
	}
}

func TestWireSizeEstimate(t *testing.T) {
	const dim = 10_000
	f32 := WireSizeEstimate(codec.F32, dim)
	q8 := WireSizeEstimate(codec.Q8, dim)
	topk := WireSizeEstimate(codec.TopK(0), dim)
	raw := WireSizeEstimate(codec.RawF64, dim)
	if !(topk < q8 && q8 < f32 && f32 < raw) {
		t.Fatalf("size ordering violated: topk=%d q8=%d f32=%d raw=%d", topk, q8, f32, raw)
	}
	// Estimates should be within ~20% of the real encoded size (they
	// drive throughput math, not framing); topk's layout is fixed by k,
	// so its estimate must be exact.
	for _, s := range []codec.Scheme{codec.F32, codec.Q8, codec.RawF64, codec.TopK(0), codec.TopK(100)} {
		v := make(tensor.Vector, dim)
		for i := range v {
			v[i] = float64(i%13) * 0.1
		}
		blob, err := codec.Encode(v, s)
		if err != nil {
			t.Fatal(err)
		}
		est := WireSizeEstimate(s, dim)
		if s.Kind == codec.KindTopK {
			if est != len(blob) {
				t.Errorf("%s: estimate %d != actual %d", s, est, len(blob))
			}
			continue
		}
		ratio := float64(est) / float64(len(blob))
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s: estimate %d vs actual %d (ratio %.2f)", s, est, len(blob), ratio)
		}
	}
}

func TestTelemetryDecay(t *testing.T) {
	now := time.Unix(1000, 0)
	ttl := 10 * time.Minute
	tel := Telemetry{
		UpBps: 5e5, DownBps: 2e5, TaskSec: 3,
		UpSamples: 8, DownSamples: 4, TaskSamples: 2,
		LastSample: now,
	}
	// Fresh telemetry (idle < ttl) passes through untouched.
	if got := tel.Decayed(now.Add(ttl-time.Second), ttl); got != tel {
		t.Fatalf("fresh telemetry decayed: %+v", got)
	}
	// ttl <= 0 disables decay entirely.
	if got := tel.Decayed(now.Add(100*ttl), 0); got != tel {
		t.Fatalf("ttl=0 decayed: %+v", got)
	}
	// Never-observed telemetry has no decay clock.
	if got := (Telemetry{UpSamples: 3}).Decayed(now, ttl); got.UpSamples != 3 {
		t.Fatalf("zero LastSample decayed: %+v", got)
	}
	// One elapsed ttl halves every sample count; values are kept so a
	// returning device blends against its old mean, not a cold seed.
	got := tel.Decayed(now.Add(ttl), ttl)
	if got.UpSamples != 4 || got.DownSamples != 2 || got.TaskSamples != 1 {
		t.Fatalf("one-ttl decay counts: %+v", got)
	}
	if got.UpBps != tel.UpBps || got.DownBps != tel.DownBps || got.TaskSec != tel.TaskSec {
		t.Fatalf("decay touched EWMA values: %+v", got)
	}
	// Three ttls: three halvings (8 -> 1, 4 -> 0, 2 -> 0).
	got = tel.Decayed(now.Add(3*ttl), ttl)
	if got.UpSamples != 1 || got.DownSamples != 0 || got.TaskSamples != 0 {
		t.Fatalf("three-ttl decay counts: %+v", got)
	}
	// A device idle for eons zeroes out without shift-width UB.
	got = tel.Decayed(now.Add(1e6*ttl), ttl)
	if got.UpSamples != 0 || got.DownSamples != 0 || got.TaskSamples != 0 {
		t.Fatalf("long-idle decay counts: %+v", got)
	}
	// Decay rehabilitates through the trust gate: a decayed device no
	// longer clears MinSamples, so the scheduler treats it as unmeasured.
	if min := 2; tel.UpSamples >= min && tel.Decayed(now.Add(3*ttl), ttl).UpSamples >= min {
		t.Fatal("decay never dropped the device below MinSamples")
	}
}

func TestTelemetryTTLDefault(t *testing.T) {
	cfg, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TelemetryTTL != 10*time.Minute {
		t.Fatalf("TelemetryTTL default = %s, want 10m", cfg.TelemetryTTL)
	}
}
