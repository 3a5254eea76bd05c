package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// testBase is a small sync base config every spec overlays in tests.
func testBase() coord.Config {
	return coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 3,
		Quorum:        2,
		OverCommit:    2,
		RoundDeadline: time.Minute,
		QueueDepth:    64,
	}
}

func testInfo(id int64) coord.DeviceInfo {
	return coord.DeviceInfo{ID: id, Model: "Pixel-6", Platform: "Android",
		WiFi: true, BatteryHigh: true, ModernOS: true, SessionSec: 3600, Weight: 10}
}

// newTestPlane builds a registry with the given specs and an httptest
// server over its router.
func newTestPlane(t *testing.T, admin bool, specs ...JobSpec) (*Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(testBase())
	t.Cleanup(reg.Close)
	for _, sp := range specs {
		if _, err := reg.Register(sp); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(reg, admin))
	t.Cleanup(ts.Close)
	return reg, ts
}

// doReq issues one request and decodes the JSON reply into out (when
// non-nil), returning the status code.
func doReq(t *testing.T, method, url, token string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestJobRoutingAndAuth pins the tenant router's isolation contract:
// unknown jobs 404 at the tenant plane, a protected job rejects wrong
// and missing tokens with 401 (counted against the probed job), the
// bearer header is the only token carrier, and the bare /v1/* alias
// reaches the default job with its own auth applied.
func TestJobRoutingAndAuth(t *testing.T) {
	reg, ts := newTestPlane(t, false,
		JobSpec{Name: "alpha"},
		JobSpec{Name: "beta", Token: "s3cret"},
	)

	// The open job's status is reachable with no credentials.
	if code := doReq(t, "GET", ts.URL+"/v1/jobs/alpha/status", "", nil, nil); code != 200 {
		t.Fatalf("alpha status = %d, want 200", code)
	}
	// Unknown job: 404 at the tenant plane, before any coordinator.
	if code := doReq(t, "GET", ts.URL+"/v1/jobs/nosuch/status", "", nil, nil); code != 404 {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	if got := reg.Counters().Counter("route_unknown_job").Value(); got != 1 {
		t.Fatalf("route_unknown_job = %d, want 1", got)
	}

	// Missing and wrong tokens are both 401; the probed job counts them.
	beta := reg.Get("beta")
	for _, token := range []string{"", "wrong", "s3cret-almost"} {
		if code := doReq(t, "GET", ts.URL+"/v1/jobs/beta/status", token, nil, nil); code != 401 {
			t.Fatalf("beta with token %q = %d, want 401", token, code)
		}
	}
	if got := beta.Coord.Counters().Counter("auth_rejected_token").Value(); got != 3 {
		t.Fatalf("beta auth_rejected_token = %d, want 3", got)
	}
	if got := reg.Counters().Counter("auth_rejected_token").Value(); got != 3 {
		t.Fatalf("tenant auth_rejected_token rollup = %d, want 3", got)
	}
	// alpha's counters stay clean: rejections land on the tenant probed.
	if got := reg.Get("alpha").Coord.Counters().Counter("auth_rejected_token").Value(); got != 0 {
		t.Fatalf("alpha auth_rejected_token = %d, want 0", got)
	}

	// The right token works as a bearer token, and only there: the same
	// token in any other header is a missing token.
	if code := doReq(t, "GET", ts.URL+"/v1/jobs/beta/status", "s3cret", nil, nil); code != 200 {
		t.Fatalf("beta with bearer token = %d, want 200", code)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/beta/status", nil)
	req.Header.Set("X-Flint-Job-Token", "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("beta with only X-Flint-Job-Token = %d, want 401", resp.StatusCode)
	}

	// Bare /v1/* aliases the default job (alpha, first registered): a
	// check-in lands in alpha's registry, not beta's.
	var ci coord.CheckInResponse
	if code := doReq(t, "POST", ts.URL+"/v1/checkin", "",
		coord.CheckInRequest{DeviceID: 7, Model: "Pixel-6", Platform: "Android",
			WiFi: true, BatteryHigh: true, SessionSec: 3600, Weight: 10}, &ci); code != 200 {
		t.Fatalf("bare checkin = %d, want 200", code)
	}
	if got := reg.Get("alpha").Coord.Status().Devices.Known; got != 1 {
		t.Fatalf("alpha known devices = %d, want 1 (default alias missed)", got)
	}
	if got := beta.Coord.Status().Devices.Known; got != 0 {
		t.Fatalf("beta known devices = %d, want 0", got)
	}
}

// TestDefaultAliasCarriesAuth pins that a tokened default job protects
// the bare /v1/* paths too — the alias is a route, not a bypass.
func TestDefaultAliasCarriesAuth(t *testing.T) {
	_, ts := newTestPlane(t, false, JobSpec{Name: "solo", Token: "k"})
	if code := doReq(t, "GET", ts.URL+"/v1/status", "", nil, nil); code != 200 {
		// /v1/status is the fleet rollup, outside per-job auth.
		t.Fatalf("rollup status = %d, want 200", code)
	}
	if code := doReq(t, "GET", ts.URL+"/v1/task", "", nil, nil); code != 401 {
		t.Fatalf("bare task without token = %d, want 401", code)
	}
	if code := doReq(t, "GET", ts.URL+"/v1/jobs/solo/status", "k", nil, nil); code != 200 {
		t.Fatalf("tokened status = %d, want 200", code)
	}
}

// TestQuotaIsolation pins admission isolation: one job's full quota
// rejects new devices with 429 (counted), while the same device IDs
// still join another tenant — registries are per-job namespaces.
func TestQuotaIsolation(t *testing.T) {
	reg, ts := newTestPlane(t, false,
		JobSpec{Name: "small", MaxDevices: 2},
		JobSpec{Name: "open"},
	)
	checkin := func(job string, id int64) int {
		return doReq(t, "POST", ts.URL+"/v1/jobs/"+job+"/checkin", "",
			coord.CheckInRequest{DeviceID: id, Model: "Pixel-6", Platform: "Android",
				WiFi: true, BatteryHigh: true, SessionSec: 3600, Weight: 10}, nil)
	}
	for id := int64(1); id <= 2; id++ {
		if code := checkin("small", id); code != 200 {
			t.Fatalf("small checkin %d = %d, want 200", id, code)
		}
	}
	// Third distinct device: over quota, 429 + Retry-After.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs/small/checkin",
		bytes.NewReader(mustJSON(t, coord.CheckInRequest{DeviceID: 3, Model: "Pixel-6",
			Platform: "Android", WiFi: true, BatteryHigh: true, SessionSec: 3600, Weight: 10})))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota checkin = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	small := reg.Get("small")
	if got := small.Coord.Counters().Counter("checkin_rejected_quota").Value(); got != 1 {
		t.Fatalf("checkin_rejected_quota = %d, want 1", got)
	}
	if got := small.Coord.Status().Devices.Known; got != 2 {
		t.Fatalf("small known = %d after rejection, want 2", got)
	}
	// A re-check-in of an already-admitted device is not a quota event.
	if code := checkin("small", 2); code != 200 {
		t.Fatalf("re-checkin = %d, want 200", code)
	}
	// The rejected ID (and the admitted ones) all join the open tenant.
	for id := int64(1); id <= 3; id++ {
		if code := checkin("open", id); code != 200 {
			t.Fatalf("open checkin %d = %d, want 200", id, code)
		}
	}
	if got := reg.Get("open").Coord.Status().Devices.Known; got != 3 {
		t.Fatalf("open known = %d, want 3", got)
	}
}

// TestBaseQuotaInherited: a spec without max_devices inherits the
// server's base quota (flint-server -max-devices), like every other zero
// spec field, and the job's status row reports the effective quota.
func TestBaseQuotaInherited(t *testing.T) {
	base := testBase()
	base.MaxDevices = 3
	reg := NewRegistry(base)
	defer reg.Close()
	if _, err := reg.Register(JobSpec{Name: "inherits"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, false))
	defer ts.Close()
	for id := int64(1); id <= 4; id++ {
		want := http.StatusOK
		if id == 4 {
			want = http.StatusTooManyRequests
		}
		code := doReq(t, "POST", ts.URL+"/v1/jobs/inherits/checkin", "",
			coord.CheckInRequest{DeviceID: id, Model: "Pixel-6", Platform: "Android",
				WiFi: true, BatteryHigh: true, SessionSec: 3600, Weight: 10}, nil)
		if code != want {
			t.Fatalf("checkin %d = %d, want %d", id, code, want)
		}
	}
	var st StatusReport
	if code := doReq(t, "GET", ts.URL+"/v1/status", "", nil, &st); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if row := st.Jobs["inherits"]; row.MaxDevices != 3 {
		t.Fatalf("status row %+v, want max_devices 3", row)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCountersPreRegistered pins the zeroed-keys contract: the moment a
// job is registered, its status exposes the full serving counter set at
// zero — dashboards see stable keys before first traffic.
func TestCountersPreRegistered(t *testing.T) {
	reg, _ := newTestPlane(t, false, JobSpec{Name: "fresh", MaxDevices: 5, Token: "k"})
	st := reg.Get("fresh").Coord.Status()
	for _, key := range []string{
		"checkin_total", "checkin_rejected_quota", "auth_rejected_token",
		"task_assigned", "task_sent_binary", "task_sent_delta",
		"update_accepted", "rounds_committed", "rounds_abandoned",
		"delta_cache_hits", "delta_base_aged", "devices_swept",
	} {
		v, ok := st.Counters[key]
		if !ok {
			t.Errorf("counter %q missing from a fresh job's status", key)
		} else if v != 0 {
			t.Errorf("counter %q = %d before any traffic, want 0", key, v)
		}
	}
}

// TestAdminRegistration pins the job-registration endpoint: disabled by
// default (403), creates with 201 when enabled, 409 on duplicates, 400
// on invalid specs, and new jobs serve immediately.
func TestAdminRegistration(t *testing.T) {
	_, closed := newTestPlane(t, false, JobSpec{Name: "first"})
	if code := doReq(t, "POST", closed.URL+"/v1/jobs", "", JobSpec{Name: "late"}, nil); code != 403 {
		t.Fatalf("registration on a non-admin server = %d, want 403", code)
	}

	_, ts := newTestPlane(t, true, JobSpec{Name: "first"})
	var row JobStatus
	if code := doReq(t, "POST", ts.URL+"/v1/jobs", "", JobSpec{Name: "late", Mode: "async"}, &row); code != 201 {
		t.Fatalf("admin registration = %d, want 201", code)
	}
	if row.Name != "late" || row.Mode != coord.ModeAsync {
		t.Fatalf("created row = %+v", row)
	}
	if code := doReq(t, "POST", ts.URL+"/v1/jobs", "", JobSpec{Name: "late"}, nil); code != 409 {
		t.Fatalf("duplicate registration = %d, want 409", code)
	}
	if code := doReq(t, "POST", ts.URL+"/v1/jobs", "", JobSpec{Name: "bad name"}, nil); code != 400 {
		t.Fatalf("invalid spec = %d, want 400", code)
	}
	if code := doReq(t, "GET", ts.URL+"/v1/jobs/late/status", "", nil, nil); code != 200 {
		t.Fatalf("new job's status = %d, want 200", code)
	}
	var list []JobStatus
	if code := doReq(t, "GET", ts.URL+"/v1/jobs", "", nil, &list); code != 200 || len(list) != 2 {
		t.Fatalf("job list = %d entries (code %d), want 2 (200)", len(list), code)
	}
}

// TestStatusRollup pins the fleet status shape: the default job's
// report inlined (backward compatibility), one row per job, and summed
// fleet counters.
func TestStatusRollup(t *testing.T) {
	reg, ts := newTestPlane(t, false,
		JobSpec{Name: "a"},
		JobSpec{Name: "b", Token: "hunter2-zz", MaxDevices: 9},
	)
	reg.Get("a").Coord.CheckIn(testInfo(1))
	reg.Get("b").Coord.CheckIn(testInfo(1))
	reg.Get("b").Coord.CheckIn(testInfo(2))

	var st StatusReport
	if code := doReq(t, "GET", ts.URL+"/v1/status", "", nil, &st); code != 200 {
		t.Fatalf("status = %d, want 200", code)
	}
	if st.DefaultJob != "a" {
		t.Fatalf("default job %q, want a", st.DefaultJob)
	}
	// The embedded report is the default job's: one known device.
	if st.Devices.Known != 1 {
		t.Fatalf("inlined devices.known = %d, want 1 (job a)", st.Devices.Known)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("jobs rollup has %d rows, want 2", len(st.Jobs))
	}
	b := st.Jobs["b"]
	if !b.Protected || b.MaxDevices != 9 || b.DevicesKnown != 2 {
		t.Fatalf("job b row = %+v", b)
	}
	if st.Fleet.Jobs != 2 || st.Fleet.DevicesKnown != 3 {
		t.Fatalf("fleet rollup = %+v", st.Fleet)
	}
	if st.Fleet.Counters["checkin_total"] != 3 {
		t.Fatalf("fleet checkin_total = %d, want 3", st.Fleet.Counters["checkin_total"])
	}
	// The raw JSON must inline the default report's fields at top level
	// (single-tenant dashboards read "round", "devices", "counters").
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"round", "devices", "counters", "jobs", "fleet", "default_job"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("/v1/status JSON missing top-level %q", key)
		}
	}
	// Tokens must never serialize.
	if bytes.Contains(mustJSON(t, st), []byte("hunter2-zz")) {
		t.Fatal("status JSON leaks a job token")
	}

	// Under concurrent commits the embedded report and the default job's
	// row come from one Status, so they agree on version and round.
	ca := reg.Get("a").Coord
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := int64(100); id < 103; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			ca.CheckIn(testInfo(id))
			for {
				select {
				case <-stop:
					return
				default:
				}
				task, err := ca.RequestTask(id)
				if err != nil {
					continue
				}
				delta := tensor.NewVector(task.Dim)
				delta.Fill(1e-4)
				_ = ca.SubmitUpdate(coord.Submission{DeviceID: id, RoundID: task.RoundID,
					BaseVersion: task.BaseVersion, Weight: 10, Delta: delta})
			}
		}(id)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	deadline := time.Now().Add(20 * time.Second)
	for st.Version < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("job a only reached version %d", st.Version)
		}
		st = StatusReport{}
		if code := doReq(t, "GET", ts.URL+"/v1/status", "", nil, &st); code != 200 {
			t.Fatalf("status = %d, want 200", code)
		}
		if row := st.Jobs["a"]; row.Version != st.Version || row.Round != st.Round.ID {
			t.Fatalf("embedded report v%d round %d, jobs[a] row v%d round %d",
				st.Version, st.Round.ID, row.Version, row.Round)
		}
	}
}

// TestSpecOverlay pins the inheritance contract: zero fields keep the
// base config, set fields override, and a shrunk target recomputes the
// quorum default instead of inheriting one larger than the target.
func TestSpecOverlay(t *testing.T) {
	base := testBase()
	base.TargetUpdates = 32
	base.Quorum = 20
	base.Transport.DeltaHistory = 6
	reg := NewRegistry(base)
	defer reg.Close()

	job, err := reg.Register(JobSpec{
		Name: "j", Mode: "async", Model: "B", TargetUpdates: 4,
		DeltaHistory: 12, LowBW: &CohortSpec{DeltaDepth: 24, Delta: "topk:64"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := job.Coord.Config()
	if cfg.Mode != coord.ModeAsync || cfg.ModelKind != model.KindB {
		t.Fatalf("mode/model = %s/%s", cfg.Mode, cfg.ModelKind)
	}
	if cfg.ModelName != "j" {
		t.Fatalf("model name %q, want job name", cfg.ModelName)
	}
	if cfg.TargetUpdates != 4 || cfg.Quorum > 4 {
		t.Fatalf("target/quorum = %d/%d: shrunk target kept an oversized quorum", cfg.TargetUpdates, cfg.Quorum)
	}
	if got := cfg.Transport.DepthFor(transport.CohortDefault); got != 12 {
		t.Fatalf("default cohort depth = %d, want 12", got)
	}
	if got := cfg.Transport.DepthFor(transport.CohortLowBW); got != 24 {
		t.Fatalf("lowbw cohort depth = %d, want 24", got)
	}
	if cfg.Transport.LowBW.Delta.Kind != codec.KindTopK || cfg.Transport.LowBW.Delta.TopK != 64 {
		t.Fatalf("lowbw delta scheme = %v", cfg.Transport.LowBW.Delta)
	}
	if cfg.RoundDeadline != base.RoundDeadline {
		t.Fatal("unset spec field did not inherit the base")
	}

	// A jobs file is a JSON array of specs with duration strings.
	specs, err := LoadSpecs([]byte(`[{"name":"x","round_deadline":"90s"},{"name":"y","round_deadline":"4s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || time.Duration(specs[0].RoundDeadline) != 90*time.Second ||
		time.Duration(specs[1].RoundDeadline) != 4*time.Second {
		t.Fatalf("LoadSpecs = %+v", specs)
	}
	// The object wrapper and bare seconds are refused, and the error
	// names the accepted form.
	for _, tc := range []struct{ file, want string }{
		{`{"jobs":[{"name":"x"}]}`, "JSON array of specs"},
		{`[{"name":"y","round_deadline":4}]`, "duration string"},
	} {
		if _, err := LoadSpecs([]byte(tc.file)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("LoadSpecs(%s) error = %v, want one naming %q", tc.file, err, tc.want)
		}
	}
}

// TestMultiJobSnapshotConsistencyUnderCommits extends the broadcast
// plane's concurrency gauntlet across tenants (run with -race): two
// jobs with different model dimensions commit continuously while task
// hammers verify, per job, that every payload rebuilds exactly the
// version its task names — from that job's own store. Any cross-tenant
// bleed (shared ring, mixed cache, torn snapshot) surfaces as a dim
// mismatch or a value off by the per-commit step.
func TestMultiJobSnapshotConsistencyUnderCommits(t *testing.T) {
	base := testBase()
	base.Mode = coord.ModeAsync
	base.TargetUpdates = 2
	base.Quorum = 1
	base.MaxInflight = 1 << 30
	base.StalenessAlpha = 0.5
	base.QueueDepth = 256
	base.KeepVersions = -1
	reg := NewRegistry(base)
	defer reg.Close()

	// Lossless both ways so reconstruction must be exact; distinct
	// models so the two planes cannot alias byte-compatibly.
	lossless := &CohortSpec{Task: "raw64", Update: "raw64", Delta: "raw64"}
	jobs := make([]*Job, 0, 2)
	for _, spec := range []JobSpec{
		{Name: "tenant-a", Model: "A", DeltaHistory: 4, Default: lossless},
		{Name: "tenant-b", Model: "B", DeltaHistory: 4, Default: lossless},
	} {
		job, err := reg.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}

	const (
		hammersPerJob = 2
		targetCommit  = 6
	)
	stop := make(chan struct{})
	errs := make(chan error, 2*hammersPerJob)
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(1000)

	for _, job := range jobs {
		c := job.Coord
		// Two committers per job keep its pipeline busy.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(c *coord.Coordinator, id int64) {
				defer wg.Done()
				c.CheckIn(testInfo(id))
				for {
					select {
					case <-stop:
						return
					default:
					}
					task, err := c.RequestTask(id)
					if err != nil {
						continue
					}
					delta := tensor.NewVector(task.Dim)
					for j := range delta {
						delta[j] = 1e-4 * float64(j%13+1)
					}
					_ = c.SubmitUpdate(coord.Submission{DeviceID: id, RoundID: task.RoundID,
						BaseVersion: task.BaseVersion, Weight: 10, Delta: delta})
				}
			}(c, int64(w+1))
		}
		// Hammers verify snapshot integrity against the job's own store.
		for h := 0; h < hammersPerJob; h++ {
			wg.Add(1)
			go func(c *coord.Coordinator, name string, seed int64) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := nextID.Add(1)
					c.CheckIn(testInfo(id))
					q := coord.TaskQuery{Binary: true}
					if v := c.Version(); v > 1 && (int64(i)+seed)%2 == 0 {
						q.BaseVersion = 1 + int(seed+int64(i))%v
					}
					task, err := c.RequestTaskWith(id, q)
					if err != nil {
						continue
					}
					m, err := c.Store().Get(name, task.BaseVersion)
					if err != nil {
						errs <- fmt.Errorf("job %s: store missing v%d: %v", name, task.BaseVersion, err)
						return
					}
					want := m.Params()
					var got tensor.Vector
					if task.DeltaBase > 0 {
						bm, err := c.Store().Get(name, task.DeltaBase)
						if err != nil {
							errs <- fmt.Errorf("job %s: delta base v%d missing: %v", name, task.DeltaBase, err)
							return
						}
						got, _, err = codec.ApplyDelta(bm.Params(), task.EncodedParams)
						if err != nil {
							errs <- fmt.Errorf("job %s: apply delta: %v", name, err)
							return
						}
					} else {
						got, _, err = codec.Decode(task.EncodedParams)
						if err != nil {
							errs <- fmt.Errorf("job %s: decode: %v", name, err)
							return
						}
					}
					if len(got) != len(want) {
						errs <- fmt.Errorf("job %s: payload dim %d, want %d (cross-tenant bleed?)", name, len(got), len(want))
						return
					}
					for j := range want {
						if d := got[j] - want[j]; d > 1e-12 || d < -1e-12 {
							errs <- fmt.Errorf("job %s v%d (delta base %d): payload[%d] = %g, want %g",
								name, task.BaseVersion, task.DeltaBase, j, got[j], want[j])
							return
						}
					}
				}
			}(c, job.Spec.Name, int64(h))
		}
	}

	deadline := time.Now().Add(90 * time.Second)
	committed := func() bool {
		for _, job := range jobs {
			if job.Coord.Version() < 1+targetCommit {
				return false
			}
		}
		return true
	}
	for !committed() && time.Now().Before(deadline) {
		select {
		case err := <-errs:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for _, job := range jobs {
		if v := job.Coord.Version(); v < 1+targetCommit {
			t.Fatalf("job %s: only %d commits under load, want >= %d", job.Spec.Name, v-1, targetCommit)
		}
	}
}
