package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/model"
	"flint/internal/tenant"
)

// Frozen sizes of ctrl_storm (full scale).
const (
	ctrlDevices     = 200_000
	ctrlBatch       = 2048
	ctrlTarget      = 64
	ctrlOverCommit  = 1.3
	ctrlMaxStale    = 6
	ctrlLegacyShare = 0.10
	ctrlHeartbeats  = 0.05
	ctrlBatchEvery  = 500    // one refresh batch check-in per this many steps
	ctrlProbeEvery  = 10_000 // one token-less probe per this many steps
	ctrlToken       = "msg-s3cret"
	ctrlBlobs       = 256
	ctrlJSONDeltas  = 32
	ctrlWarmSteps   = 4000
	ctrlHeapAt      = 40_000 // steps per client into the timed phase at which live_heap_mib is read
)

// ctrlEnv is the control-plane workload: one tenant server, two model-A
// jobs, a 200k-device registry, and a step script in which every device
// re-checks-in with redrawn session state, polls for a task and uploads a
// tiny update.
type ctrlEnv struct {
	cfg     runConfig
	reg     *tenant.Registry
	srv     *httptest.Server
	clients []*ctrlClient
	devices int // total; ids 1..devices/2 belong to ads, the rest to msg
	blobs   [][]byte
	jsonDel [][]byte
	dim     int

	obs commitObserver
	// probes counts the scripted 401 probes.
	probes int64
}

type ctrlClient struct {
	*client
	e    *ctrlEnv
	id   int
	rng  *prng
	step int64
	// held is the model version each device of this client's partition last
	// received, indexed by id/2; only this client touches it.
	held   []int32
	body   []byte
	probes int64
}

func newCtrlEnv(cfg runConfig, t *tracer) (env, error) {
	e := &ctrlEnv{cfg: cfg, devices: cfg.scaled(ctrlDevices, 4*ctrlBatch) / 2 * 2}
	base := coord.Config{
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: ctrlTarget,
		OverCommit:    ctrlOverCommit,
		Criteria:      availability.Criteria{RequireWiFi: true, RequireBatteryHigh: true},
	}
	e.reg = tenant.NewRegistry(base)
	if _, err := e.reg.Register(tenant.JobSpec{Name: "ads", Mode: "sync"}); err != nil {
		return nil, err
	}
	if _, err := e.reg.Register(tenant.JobSpec{Name: "msg", Mode: "async", MaxStaleness: ctrlMaxStale, Token: ctrlToken}); err != nil {
		e.reg.Close()
		return nil, err
	}
	m, err := model.New(model.KindA, 1)
	if err != nil {
		e.reg.Close()
		return nil, err
	}
	e.dim = m.NumParams()
	e.srv = httptest.NewServer(t.wrap(layerOuter, tenant.NewServer(e.reg, false)))
	ads := e.ads()
	e.obs = commitObserver{version: ads.Version, accepted: ads.Counters().Counter("update_accepted"),
		pending: ads.Counters().Counter("publish_pending"), target: ctrlTarget}

	if e.blobs, err = newUpdatePool(cfg.Seed, ctrlBlobs, e.dim, 0.01, 0, codec.Q8); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < ctrlJSONDeltas; i++ {
		v, _, err := codec.Decode(e.blobs[i])
		if err != nil {
			e.close()
			return nil, err
		}
		e.jsonDel = append(e.jsonDel, deltaJSON(v))
	}
	for i := 0; i < 2; i++ {
		e.clients = append(e.clients, &ctrlClient{
			client: newClient(e.srv.URL, t), e: e, id: i,
			rng:  newPRNG(cfg.Seed, uint64(i)),
			held: make([]int32, e.devices/2+1),
		})
	}
	// Registration storm: every device through the batch endpoint, the two
	// clients taking alternate batches.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *ctrlClient) {
			defer wg.Done()
			rng := newPRNG(cfg.Seed, uint64(100+i))
			for b, lo := range e.batchStarts() {
				if b%2 != i {
					continue
				}
				if errs[i] = c.batchCheckin(lo, rng); errs[i] != nil {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	for _, c := range e.clients {
		c.reset()
	}
	return e, nil
}

// job returns the route prefix of the job owning device id, whether it is
// the token-protected msg job, and the job's id range.
func (e *ctrlEnv) job(id int64) (prefix string, msg bool, first, last int64) {
	half := int64(e.devices / 2)
	if id > half {
		return "/v1/jobs/msg", true, half + 1, int64(e.devices)
	}
	return "/v1", false, 1, half
}

// batchStarts lists the first id of every registration batch: each job's id
// range cut into ctrlBatch-sized blocks.
func (e *ctrlEnv) batchStarts() []int64 {
	var out []int64
	for _, id := range []int64{1, int64(e.devices)} {
		_, _, first, last := e.job(id)
		for lo := first; lo <= last; lo += ctrlBatch {
			out = append(out, lo)
		}
	}
	return out
}

// batchCheckin checks in the block of up to ctrlBatch devices starting at lo
// (clipped to the owning job's range) in one request.
func (c *ctrlClient) batchCheckin(lo int64, rng *prng) error {
	e := c.e
	prefix, msg, _, last := e.job(lo)
	hi := min(lo+ctrlBatch-1, last)
	b := append(c.body[:0], `{"devices":[`...)
	for id := lo; id <= hi; id++ {
		d := deviceOf(e.cfg.Seed, id, ctrlLegacyShare)
		d.redraw(rng)
		if id > lo {
			b = append(b, ',')
		}
		b = appendCheckin(b, &d)
	}
	c.body = append(b, "]}"...)
	r, err := c.do(opBatch, http.MethodPost, prefix+"/checkin/batch", c.body, c.auth(msg)...)
	if err != nil {
		return err
	}
	if !c.expect(r, http.StatusOK) {
		return fmt.Errorf("batch check-in at %d: status %d: %s", lo, r.status, r.body)
	}
	var res coord.BatchCheckInResponse
	if err := json.Unmarshal(r.body, &res); err != nil || res.Accepted != int(hi-lo+1) {
		c.failed++
		return fmt.Errorf("batch check-in at %d: accepted %d of %d (%v)", lo, res.Accepted, hi-lo+1, err)
	}
	return nil
}

var (
	jsonHeaders    = []string{"Content-Type", "application/json"}
	jsonMsgHeaders = []string{"Content-Type", "application/json", "Authorization", "Bearer " + ctrlToken}
)

// auth returns the headers of a JSON request to the device's job.
func (c *ctrlClient) auth(msg bool) []string {
	if msg {
		return jsonMsgHeaders
	}
	return jsonHeaders
}

var eligibleTrue = []byte(`"eligible":true`)

// runStep executes one scripted step for a device drawn uniformly from this
// client's partition (ids congruent to the client id modulo 2).
func (c *ctrlClient) runStep() error {
	e := c.e
	c.step++
	id := int64(c.rng.intn(e.devices/2))*2 + int64(c.id) + 1
	prefix, msg, first, _ := e.job(id)
	switch {
	case c.step%ctrlProbeEvery == 0:
		// A device that lost its token: the job must turn it away.
		r, err := c.do(opProbe, http.MethodGet, "/v1/jobs/msg/task?device="+strconv.FormatInt(id, 10), nil)
		if err != nil {
			return err
		}
		c.expect(r, http.StatusUnauthorized)
		c.probes++
		return nil
	case c.step%ctrlBatchEvery == 0:
		return c.batchCheckin(first+(id-first)/ctrlBatch*ctrlBatch, c.rng)
	}
	if c.rng.float() < ctrlHeartbeats {
		r, err := c.do(opHeartbeat, http.MethodPost, prefix+"/heartbeat?device="+strconv.FormatInt(id, 10), nil, c.auth(msg)...)
		if err != nil {
			return err
		}
		c.expect(r, http.StatusOK)
		return nil
	}
	d := deviceOf(e.cfg.Seed, id, ctrlLegacyShare)
	d.redraw(c.rng)
	c.body = appendCheckin(c.body[:0], &d)
	r, err := c.do(opCheckin, http.MethodPost, prefix+"/checkin", c.body, c.auth(msg)...)
	if err != nil {
		return err
	}
	if !c.expect(r, http.StatusOK) {
		return nil
	}
	eligible := d.wifi && d.batteryHigh
	if bytes.Contains(r.body, eligibleTrue) != eligible {
		c.failed++ // the server's eligibility verdict disagrees with the criteria
		return nil
	}
	if !eligible {
		return nil
	}
	blob := int(c.rng.next() % ctrlBlobs)
	if d.legacy {
		return c.legacyTask(&d, prefix, msg, blob%ctrlJSONDeltas)
	}
	return c.binaryTask(&d, prefix, msg, blob)
}

// binaryTask polls for a task over the tensor protocol, naming the version
// the device holds, and uploads a pre-encoded q8 update when it gets one.
func (c *ctrlClient) binaryTask(d *device, prefix string, msg bool, blob int) error {
	hdr := []string{"Accept", contentTypeTensor, "X-Flint-Accept-Schemes", acceptAll}
	if v := c.held[d.id/2]; v > 0 {
		hdr = append(hdr, hdrBaseVersion, strconv.Itoa(int(v)))
	}
	if msg {
		hdr = append(hdr, "Authorization", "Bearer "+ctrlToken)
	}
	r, err := c.do(opTask, http.MethodGet, prefix+"/task?device="+strconv.FormatInt(d.id, 10), nil, hdr...)
	if err != nil {
		return err
	}
	if !c.expect(r, http.StatusOK, http.StatusNoContent) || r.status == http.StatusNoContent {
		return nil
	}
	round, base := r.header.Get(hdrRound), r.header.Get(hdrBaseVersion)
	v, err := strconv.Atoi(base)
	if err != nil || round == "" {
		c.failed++
		return nil
	}
	c.held[d.id/2] = int32(v)
	hdr = []string{"Content-Type", contentTypeTensor, hdrDevice, strconv.FormatInt(d.id, 10),
		hdrRound, round, hdrBaseVersion, base, hdrWeight, strconv.Itoa(d.weight)}
	if msg {
		hdr = append(hdr, "Authorization", "Bearer "+ctrlToken)
	}
	u, err := c.do(opUpdate, http.MethodPost, prefix+"/update", c.e.blobs[blob], hdr...)
	if err != nil {
		return err
	}
	c.expect(u, http.StatusAccepted)
	return nil
}

// legacyTask is the same exchange over the legacy JSON protocol.
func (c *ctrlClient) legacyTask(d *device, prefix string, msg bool, del int) error {
	r, err := c.do(opTask, http.MethodGet, prefix+"/task?device="+strconv.FormatInt(d.id, 10), nil, c.auth(msg)...)
	if err != nil {
		return err
	}
	if !c.expect(r, http.StatusOK, http.StatusNoContent) || r.status == http.StatusNoContent {
		return nil
	}
	round, okR := jsonUint(r.body, `"round_id":`)
	base, okB := jsonUint(r.body, `"base_version":`)
	if !okR || !okB {
		c.failed++
		return nil
	}
	b := append(c.body[:0], `{"device_id":`...)
	b = strconv.AppendInt(b, d.id, 10)
	b = append(b, `,"round_id":`...)
	b = strconv.AppendUint(b, round, 10)
	b = append(b, `,"base_version":`...)
	b = strconv.AppendUint(b, base, 10)
	b = append(b, `,"weight":`...)
	b = strconv.AppendInt(b, int64(d.weight), 10)
	b = append(b, `,"delta":`...)
	b = append(b, c.e.jsonDel[del]...)
	c.body = append(b, '}')
	u, err := c.do(opUpdate, http.MethodPost, prefix+"/update", c.body, c.auth(msg)...)
	if err != nil {
		return err
	}
	c.expect(u, http.StatusAccepted)
	return nil
}

// jsonUint reads the unsigned integer that follows key in a JSON document
// (the task reply's leading scalar fields; no need to parse its 30 KB array).
func jsonUint(doc []byte, key string) (uint64, bool) {
	i := bytes.Index(doc, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(doc) && doc[j] >= '0' && doc[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(doc[i:j]), 10, 64)
	return v, err == nil
}

func (e *ctrlEnv) ads() *coord.Coordinator { return e.reg.Get("ads").Coord }
func (e *ctrlEnv) msg() *coord.Coordinator { return e.reg.Get("msg").Coord }

func (e *ctrlEnv) warmup() error {
	// Enough steps for both jobs to commit, the delta ring to turn over and
	// at least one scheduler rebuild to hold a census.
	warm := e.cfg.scaled(ctrlWarmSteps, 400)
	if err := e.steps(func(c *ctrlClient) bool { return c.step >= int64(warm) }); err != nil {
		return err
	}
	if e.cfg.Scale < 1 {
		return nil // the smoke test does not wait out a 2 s rebuild period
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.ads().Counters().Counter("sched_rebuilds").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// steps runs both clients until done reports true for each.
func (e *ctrlEnv) steps(done func(c *ctrlClient) bool) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *ctrlClient) {
			defer wg.Done()
			for !done(c) {
				if err := c.runStep(); err != nil {
					errs[i] = err
					return
				}
				e.obs.observe()
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *ctrlEnv) drive(n int, deadline time.Time) error {
	e.obs.arm()
	if n <= 0 {
		return e.steps(func(*ctrlClient) bool { return !time.Now().Before(deadline) })
	}
	var stop [2]int64
	for _, c := range e.clients {
		stop[c.id] = c.step + int64(n)
	}
	return e.steps(func(c *ctrlClient) bool { return c.step >= stop[c.id] })
}

func (e *ctrlEnv) take() taken {
	cs := make([]*client, len(e.clients))
	for i, c := range e.clients {
		cs[i] = c.client
		e.probes += c.probes
		c.probes = 0
	}
	tk := taken{m: drain(cs...), clients: len(cs)}
	tk.rounds, tk.commits = e.obs.take()
	return tk
}

func (e *ctrlEnv) counters() map[string]int64 {
	plane := e.reg.Counters().Snapshot()
	prefixed := make(map[string]int64, len(plane))
	for k, v := range plane {
		prefixed["tenant."+k] = v
	}
	return metrics.Rollup(e.ads().Counters().Snapshot(), e.msg().Counters().Snapshot(), prefixed)
}

func (e *ctrlEnv) verify() []oracle {
	var out []oracle
	// The tenant rollup, fetched over HTTP like an operator would.
	c := e.clients[0].client
	r, err := c.do(opProbe, http.MethodGet, "/v1/status", nil)
	var st tenant.StatusReport
	if err == nil {
		err = json.Unmarshal(r.body, &st)
	}
	if err != nil {
		return append(out, check("status", false, "GET /v1/status: %v", err))
	}
	known := st.Jobs["ads"].DevicesKnown + st.Jobs["msg"].DevicesKnown
	out = append(out, check("devices_known", known == e.devices, "known %d, registered %d", known, e.devices))
	rejected := st.Jobs["msg"].AuthRejected
	out = append(out, check("probes_401", rejected == e.probes, "auth_rejected %d, probes %d", rejected, e.probes))
	for _, name := range []string{"ads", "msg"} {
		js := st.Jobs[name]
		out = append(out, check(name+"_versions", js.RoundsCommitted > 0 && js.Version == 1+int(js.RoundsCommitted),
			"version %d after %d commits", js.Version, js.RoundsCommitted))
	}
	cs := e.counters()
	for _, bad := range []string{"rounds_abandoned", "round_aggregate_error", "round_publish_error", "update_rejected_busy", "update_rejected_dim", "update_rejected_nonfinite"} {
		if cs[bad] != 0 {
			out = append(out, check(bad, false, "%s = %d", bad, cs[bad]))
		}
	}
	return out
}

func (e *ctrlEnv) close() {
	for _, c := range e.clients {
		c.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.reg.Close()
}

// commitObserver watches the sync job's commits from outside, through public
// accessors only, and from the clients themselves: after every request a
// client loads the published version and the accepted-update counter (two
// atomic loads), so the job is observed every few tens of microseconds
// without a polling goroutine competing for the two cores. A round of target
// updates is full when the accepted count reaches the next multiple of target
// and committed when the version advances; the time between is the commit
// latency, the time between two advances the round time.
type commitObserver struct {
	version  func() int
	accepted *metrics.Counter
	pending  *metrics.Counter
	target   int64

	seenV    atomic.Int64 // the version last recorded
	fillSeen atomic.Bool  // the current round's fill has been recorded

	mu                  sync.Mutex
	lastAdvance, fillAt time.Time
	rounds, commits     []lat
	pendingMax          int64
}

// arm starts a measured interval at the current version.
func (o *commitObserver) arm() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seenV.Store(int64(o.version()))
	o.fillSeen.Store(false)
	o.lastAdvance, o.fillAt = time.Time{}, time.Time{}
}

func (o *commitObserver) observe() {
	v, seen := int64(o.version()), o.seenV.Load()
	if v == seen && (o.fillSeen.Load() || o.accepted.Value() < seen*o.target) {
		return
	}
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch seen = o.seenV.Load(); {
	case v > seen:
		if v == seen+1 {
			if !o.lastAdvance.IsZero() {
				o.rounds = append(o.rounds, satNS(now.Sub(o.lastAdvance)))
			}
			if !o.fillAt.IsZero() {
				o.commits = append(o.commits, satNS(now.Sub(o.fillAt)))
			}
		}
		o.lastAdvance, o.fillAt = now, time.Time{}
		o.fillSeen.Store(false)
		o.seenV.Store(v)
		o.pendingMax = max(o.pendingMax, o.pending.Value())
	case v == seen && !o.fillSeen.Load() && o.accepted.Value() >= seen*o.target:
		o.fillAt = now
		o.fillSeen.Store(true)
	}
}

func (o *commitObserver) take() (rounds, commits []lat) {
	o.mu.Lock()
	defer o.mu.Unlock()
	rounds, commits = o.rounds, o.commits
	o.rounds, o.commits = nil, nil
	return rounds, commits
}
