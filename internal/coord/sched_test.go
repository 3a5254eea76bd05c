package coord

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// slowTel/fastTel build telemetry observations that pin a device's
// measured downlink well below / above the default lowbw threshold
// (187.5 KB/s), with enough samples to beat any MinSamples gate.
func observeBps(c *Coordinator, id int64, bps float64) {
	for i := 0; i < 3; i++ {
		c.ObserveTelemetry(id, TelemetryObservation{
			UpBytes: int(bps), UpDur: time.Second,
			DownBytes: int(bps), DownDur: time.Second,
			Train: 50 * time.Millisecond,
		})
	}
}

// TestSchedulerCohortRemap pins the tentpole behavior: measured
// bandwidth overrides the radio label in transport classification — a
// slow "WiFi" device lands on the lowbw policy, a fast "cellular" device
// on the default policy — and /v1/status reports the remap census with
// per-cohort bandwidth histograms.
func TestSchedulerCohortRemap(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum = 8, 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowWiFi := testInfo(1) // WiFi label → default cohort by radio
	fastCell := testInfo(2)
	fastCell.WiFi = false // cellular label → lowbw cohort by radio
	fastCell.BatteryHigh = true

	// Before any measurement the radio label classifies.
	if res := c.CheckIn(slowWiFi); res.Cohort != transport.CohortDefault {
		t.Fatalf("unmeasured WiFi device cohort %q", res.Cohort)
	}
	if res := c.CheckIn(fastCell); res.Cohort != transport.CohortLowBW {
		t.Fatalf("unmeasured cellular device cohort %q", res.Cohort)
	}

	observeBps(c, 1, 20_000) // 0.16 Mbps: slow
	observeBps(c, 2, 2e6)    // 16 Mbps: fast
	c.rebuildSched(time.Now())

	if res := c.CheckIn(slowWiFi); res.Cohort != transport.CohortLowBW {
		t.Errorf("slow WiFi device cohort %q, want lowbw", res.Cohort)
	}
	if res := c.CheckIn(fastCell); res.Cohort != transport.CohortDefault {
		t.Errorf("fast cellular device cohort %q, want default", res.Cohort)
	}

	// The remap flows through to the task's negotiated wire schemes.
	task, err := c.RequestTask(1)
	if err != nil {
		t.Fatal(err)
	}
	if task.Cohort != transport.CohortLowBW {
		t.Errorf("slow WiFi task cohort %q", task.Cohort)
	}
	if want := c.Config().Transport.LowBW.Task; task.TaskScheme != want {
		t.Errorf("slow WiFi task scheme %v, want lowbw policy %v", task.TaskScheme, want)
	}

	st := c.Status()
	sr := st.Scheduler
	if !sr.Enabled || sr.Measured != 2 || sr.Remapped != 2 {
		t.Errorf("scheduler report: %+v", sr)
	}
	hist := 0
	for _, cs := range sr.Cohorts {
		for _, n := range cs.BandwidthHist {
			hist += n
		}
	}
	if hist != 2 {
		t.Errorf("histogram mass %d, want 2", hist)
	}
}

// TestSchedulerDeadlineGate: a device measured too slow to finish inside
// the round window is denied at assignment time in sync mode (counted in
// task_denied_deadline) but still served in async mode, where carry-over
// updates are welcome.
func TestSchedulerDeadlineGate(t *testing.T) {
	cfg := syncTestConfig()
	cfg.RoundDeadline = 2 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.CheckIn(testInfo(1))
	c.CheckIn(testInfo(2))
	c.CheckIn(testInfo(3))
	observeBps(c, 1, 50) // ~2 minutes to move one f32 task: hopeless
	observeBps(c, 2, 5e6)

	if _, err := c.RequestTask(1); !errors.Is(err, ErrNoTask) {
		t.Fatalf("slow device: err = %v, want ErrNoTask", err)
	}
	if got := c.Counters().Counter("task_denied_deadline").Value(); got != 1 {
		t.Fatalf("task_denied_deadline = %d, want 1", got)
	}
	if _, err := c.RequestTask(2); err != nil {
		t.Fatalf("fast device denied: %v", err)
	}
	if _, err := c.RequestTask(3); err != nil {
		t.Fatalf("unmeasured device denied: %v", err)
	}

	// Probe admission: the slow device's consecutive denials eventually
	// earn a re-measurement probe (the probe threshold is 8; one denial
	// already happened above), and a fresh observation resets the
	// streak so the cadence restarts.
	for i := 0; i < 6; i++ {
		if _, err := c.RequestTask(1); !errors.Is(err, ErrNoTask) {
			t.Fatalf("denial %d: err = %v, want ErrNoTask", i+2, err)
		}
	}
	if _, err := c.RequestTask(1); err != nil {
		t.Fatalf("8th consecutive denial not probe-admitted: %v", err)
	}
	if got := c.Counters().Counter("task_probe_admitted").Value(); got != 1 {
		t.Fatalf("task_probe_admitted = %d, want 1", got)
	}
	// The probe's update arrives with fast telemetry: streak resets and
	// the next rebuild admits the device normally.
	c.reg.Release(1)
	observeBps(c, 1, 5e6)
	c.rebuildSched(time.Now())
	if _, err := c.RequestTask(1); err != nil {
		t.Fatalf("re-measured device still gated: %v", err)
	}

	// Async mode: the same hopeless telemetry is not a denial.
	acfg := Config{
		Mode: ModeAsync, ModelKind: model.KindA, Seed: 1,
		TargetUpdates: 64, RoundDeadline: 2 * time.Second,
		StalenessAlpha: 0.5, QueueDepth: 64,
	}
	ac, err := New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	ac.CheckIn(testInfo(1))
	observeBps(ac, 1, 50)
	if _, err := ac.RequestTask(1); err != nil {
		t.Fatalf("async slow device denied: %v", err)
	}
}

// TestSchedulerOverCommitProvisioning: after a rebuild over a
// half-straggler fleet, freshly opened sync rounds carry a proportionally
// larger assignment budget, clamped by sched.MaxOverCommit.
func TestSchedulerOverCommitProvisioning(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum = 4, 4
	cfg.OverCommit = 1.0
	cfg.RoundDeadline = 2 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Eight devices, the scheduler's census floor: half fast, half slow.
	for id := int64(1); id <= 8; id++ {
		c.CheckIn(testInfo(id))
		bps := 5e6
		if id > 4 {
			bps = 50
		}
		observeBps(c, id, bps)
	}
	c.rebuildSched(time.Now())

	if got := c.sched.OverCommit(cfg.OverCommit); got != 2.0 {
		t.Fatalf("over-commit scale = %v, want 2.0", got)
	}
	bs := c.serving.Load().bcast
	r := c.newRound(7, bs, time.Now())
	if r.MaxAssign != 8 {
		t.Fatalf("provisioned MaxAssign = %d, want 8 (target 4 x 2.0)", r.MaxAssign)
	}
}

// TestAcceptChangesBetweenCheckins (transport negotiation edge case): a
// device that re-checks-in with a different capability list is served
// under the new list immediately — stale capabilities must not outlive
// the check-in that replaced them.
func TestAcceptChangesBetweenCheckins(t *testing.T) {
	cfg := syncTestConfig()
	cfg.TargetUpdates, cfg.Quorum = 8, 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := testInfo(1)
	info.Accept = []codec.Kind{codec.KindQ8, codec.KindF32}
	res := c.CheckIn(info)
	if res.Policy.Update != codec.Q8 {
		t.Fatalf("first check-in update scheme %v, want q8", res.Policy.Update)
	}
	task, err := c.RequestTaskWith(1, TaskQuery{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	if task.UpdateScheme != codec.Q8 {
		t.Fatalf("task update scheme %v, want q8", task.UpdateScheme)
	}
	// Consume the assignment so the next request isn't a duplicate.
	submitFor(t, c, 1, task)
	eventually(t, 5*time.Second, func() bool {
		return c.Counters().Counter("update_accepted").Value() >= 1
	}, "first update never ingested")

	// The device "updates its app" and now only decodes f32.
	info.Accept = []codec.Kind{codec.KindF32}
	if res := c.CheckIn(info); res.Policy.Update != codec.F32 || res.Policy.Task != codec.F32 {
		t.Fatalf("second check-in policy %+v, want all-f32", res.Policy)
	}
	task2, err := c.RequestTaskWith(1, TaskQuery{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	if task2.UpdateScheme != codec.F32 || task2.TaskScheme != codec.F32 {
		t.Fatalf("task after capability change: task=%v update=%v, want f32/f32",
			task2.TaskScheme, task2.UpdateScheme)
	}

	// An empty advertised list (garbage accept_schemes parsed to nothing)
	// forces the universal fallback and is counted.
	info.Accept = []codec.Kind{}
	before := c.Counters().Counter("transport_fallback_f32").Value()
	if res := c.CheckIn(info); res.Policy.Task != codec.F32 {
		t.Fatalf("empty-list policy %+v, want f32 fallback", res.Policy)
	}
	if got := c.Counters().Counter("transport_fallback_f32").Value(); got != before+1 {
		t.Fatalf("transport_fallback_f32 = %d, want %d", got, before+1)
	}
}

// TestDeltaCacheBoundedByRing (transport negotiation edge case): however
// devices mix base versions and capability lists, one broadcast plane's
// delta cache never holds more than ring-depth x scheme-count entries —
// the negotiated schemes all come from the cohort policies (plus the
// no-change topk:1 frame), so a hostile client cannot inflate the cache.
func TestDeltaCacheBoundedByRing(t *testing.T) {
	const dim = 64
	published := make(tensor.Vector, dim)
	for i := range published {
		published[i] = float64(i)
	}
	const ringDepth = 5
	ring := make([]ringEntry, 0, ringDepth)
	for v := 1; v <= ringDepth; v++ {
		p := published.Clone()
		p.Scale(float64(v))
		ring = append(ring, ringEntry{version: v, params: p})
	}
	bs := newBroadcastState(ringDepth, ring[ringDepth-1].params, nil, ring[:ringDepth-1], ringDepth)

	schemes := []codec.Scheme{codec.Q8, {Kind: codec.KindTopK}, codec.F32}
	noChange := codec.TopK(1)
	for iter := 0; iter < 50; iter++ {
		for base := 1; base <= ringDepth+2; base++ { // +2: aged-out bases must not cache
			for _, s := range schemes {
				bs.deltaBlob(base, s, noChange)
			}
		}
	}
	entries := 0
	bs.cache.Range(func(_, _ any) bool { entries++; return true })
	// Bases 1..ringDepth-1 x 3 schemes, plus the current-version
	// no-change frame (one scheme: every request maps to noChange).
	max := (ringDepth-1)*len(schemes) + 1
	if entries > max {
		t.Fatalf("delta cache holds %d entries, want <= %d", entries, max)
	}
	if entries == 0 {
		t.Fatal("delta cache empty: the hammer never encoded anything")
	}
}

// TestCommitDuringEligibilityChurn is the -race hammer: commits run
// while devices flap their eligibility attributes, telemetry, and
// capability lists under concurrent check-ins — the scheduler's rebuild,
// the negotiator, and the commit pipeline must share the fleet without a
// torn read. Run with -race (CI does).
func TestCommitDuringEligibilityChurn(t *testing.T) {
	cfg := Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		Quorum:        2,
		OverCommit:    2,
		RoundDeadline: 500 * time.Millisecond,
		QueueDepth:    256,
		Sched:         sched.Config{RebuildEvery: 10 * time.Millisecond, MinSamples: 1},
		Criteria:      availability.Criteria{RequireWiFi: true},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const devices = 48
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churners: re-check-in with flapping WiFi/battery and shifting
	// capability lists, feeding randomized telemetry.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(rng.Intn(devices) + 1)
				info := testInfo(id)
				info.WiFi = rng.Intn(2) == 0
				info.BatteryHigh = rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					info.Accept = []codec.Kind{codec.KindF32, codec.KindQ8}
				}
				c.CheckIn(info)
				c.ObserveTelemetry(id, TelemetryObservation{
					UpBytes: 1000 + rng.Intn(1_000_000), UpDur: 10 * time.Millisecond,
					DownBytes: 1000 + rng.Intn(1_000_000), DownDur: 10 * time.Millisecond,
					Train: time.Duration(rng.Intn(50)) * time.Millisecond,
				})
			}
		}(g)
	}
	// Workers: pull tasks and submit updates so rounds keep committing.
	var accepted atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			delta := tensor.NewVector(c.dim)
			delta.Fill(0.0001)
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(rng.Intn(devices) + 1)
				task, err := c.RequestTask(id)
				if err != nil {
					continue
				}
				if c.SubmitUpdate(Submission{
					DeviceID: id, RoundID: task.RoundID,
					BaseVersion: task.BaseVersion, Weight: 1, Delta: delta,
				}) == nil {
					accepted.Add(1)
				}
			}
		}(g)
	}
	// Reader: status snapshots interleave with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Status()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if c.Version() < 2 {
		t.Fatalf("no commit happened under churn (version %d, %d accepted)", c.Version(), accepted.Load())
	}
	if rep := c.Status().Scheduler; rep.Devices == 0 || rep.Measured == 0 {
		t.Fatalf("scheduler never measured the churning fleet: %+v", rep)
	}
}

// TestObserveUpdateTelemetry pins Server.observeUpdate's contract over
// HTTP: binary updates carry the device's timing reports in headers, and
// the registry's telemetry shows which ones the server believed. On a
// production clock (compression 1) the server's own uplink measurement
// stands against any claim; under compressed time the device's uplink
// claim is the signal. Reported sizes beyond the update body budget and
// durations beyond an hour are dropped in both.
func TestObserveUpdateTelemetry(t *testing.T) {
	type report struct {
		upBytes, downBytes  int
		upMS, downMS, train float64
	}
	post := func(t *testing.T, url string, id int64, blob []byte, rep report) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v1/update", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		h := req.Header
		h.Set("Content-Type", transport.ContentTypeTensor)
		h.Set(transport.HeaderDevice, strconv.FormatInt(id, 10))
		h.Set(transport.HeaderRound, "1")
		h.Set(transport.HeaderBaseVersion, "1")
		set := func(name string, v float64) {
			if v != 0 {
				h.Set(name, strconv.FormatFloat(v, 'f', -1, 64))
			}
		}
		set(transport.HeaderUpBytes, float64(rep.upBytes))
		set(transport.HeaderUpMS, rep.upMS)
		set(transport.HeaderDownBytes, float64(rep.downBytes))
		set(transport.HeaderDownMS, rep.downMS)
		set(transport.HeaderTrainMS, rep.train)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// measured marks an uplink EWMA that must be the server's loopback
	// measurement of a ~6 KB body: far above every claimed rate below.
	const measured = -1
	cases := []struct {
		name        string
		compression float64
		rep         report
		// Expected telemetry; 0 means no sample was taken.
		upBps, downBps, taskSec float64
	}{
		{"claim ignored at compression 1", 1,
			report{upBytes: 100, upMS: 1000, downBytes: 20_000, downMS: 500, train: 1500},
			measured, 40_000, 1.5},
		{"oversize download dropped", 1,
			report{downBytes: maxUpdateBody + 1, downMS: 500, train: maxReportedMS + 1},
			measured, 0, 0},
		{"overlong download dropped", 1,
			report{downBytes: 20_000, downMS: maxReportedMS + 1, train: 250},
			measured, 0, 0.25},
		{"claim used under compression", 100,
			report{upBytes: 50_000, upMS: 1000, downBytes: 20_000, downMS: 500},
			50_000, 40_000, 0},
		{"oversize claim dropped under compression", 100,
			report{upBytes: maxUpdateBody + 1, upMS: 1000},
			measured, 0, 0},
		{"overlong claim dropped under compression", 100,
			report{upBytes: 100, upMS: maxReportedMS + 1, train: maxReportedMS + 1},
			measured, 0, 0},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := syncTestConfig()
			cfg.Sched.TimeCompression = tc.compression
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := httptest.NewServer(NewServer(c))
			defer srv.Close()
			blob, err := codec.Encode(tensor.NewVector(c.dim), codec.F32)
			if err != nil {
				t.Fatal(err)
			}
			id := int64(i + 1)
			c.CheckIn(testInfo(id))
			post(t, srv.URL, id, blob, tc.rep)

			_, tel, ok := c.reg.Snapshot(id)
			if !ok {
				t.Fatal("device vanished")
			}
			if tel.UpSamples != 1 {
				t.Fatalf("%d uplink samples, want 1", tel.UpSamples)
			}
			if tc.upBps == measured {
				if tel.UpBps < 1e4 {
					t.Errorf("uplink %v B/s: the device's claim displaced the server's measurement", tel.UpBps)
				}
			} else if tel.UpBps != tc.upBps {
				t.Errorf("uplink %v B/s, want the claimed %v", tel.UpBps, tc.upBps)
			}
			if want := boolToInt(tc.downBps != 0); tel.DownSamples != want || tel.DownBps != tc.downBps {
				t.Errorf("downlink %v B/s over %d samples, want %v", tel.DownBps, tel.DownSamples, tc.downBps)
			}
			if want := boolToInt(tc.taskSec != 0); tel.TaskSamples != want || tel.TaskSec != tc.taskSec {
				t.Errorf("train %v s over %d samples, want %v", tel.TaskSec, tel.TaskSamples, tc.taskSec)
			}
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
