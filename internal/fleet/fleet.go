package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/device"
	"flint/internal/metrics"
	"flint/internal/tensor"
)

// deltaScale is the standard deviation of every coordinate of a device's
// synthetic update delta. Every run used this one value, so it is no
// setting.
const deltaScale = 0.01

// Config drives a synthetic device fleet against a running coordination
// server: thousands of goroutine "devices" drawn from the Fig 1 population
// model (device.BenchPool profiles plus the Zipf long tail) check in, pull
// tasks, simulate profile-scaled local training, and submit updates until
// the server commits the requested number of rounds. Every device is
// always on and its link is whatever the host gives it; availability churn
// and simulated links are the virtual-time plane's (internal/vload).
type Config struct {
	// BaseURL is the server root, e.g. http://127.0.0.1:8080: a
	// coordination server or a shard-tier gateway (cmd/flint-gateway),
	// which the client tells apart from its /v1/status (Client.Ready).
	BaseURL string
	// Job routes the fleet at one tenant of a multi-job server: requests
	// go to /v1/jobs/<Job>/... instead of the bare /v1 default-job alias.
	Job string
	// Token is the job's bearer token, sent as Authorization: Bearer on
	// every request when non-empty.
	Token string
	// IDOffset shifts the fleet's device IDs (1..Devices become
	// IDOffset+1..IDOffset+Devices) so concurrent fleets driving
	// different jobs of one server use disjoint identities.
	IDOffset int64
	// Devices is the simulated fleet size.
	Devices int
	// Rounds is how many committed rounds to drive before stopping.
	Rounds int
	// Seed seeds population sampling and per-device behavior.
	Seed int64
	// ThinkTime is the mean idle pause between a device's protocol
	// steps (jittered per device).
	ThinkTime time.Duration
	// ComputeScale scales the profile-derived local-training sleep
	// (0 disables simulated compute entirely).
	ComputeScale float64
	// DeltaBias adds a constant per-coordinate drift to every honest
	// device's synthetic delta, so the published model's norm moves in a
	// deterministic direction round over round. Pure zero-mean deltas
	// would make an undefended poisoned run statistically similar to a
	// defended one; with a bias, boosted sign-flip attackers drag the
	// model the other way and the drift gap is visible in /v1/status's
	// model_norm (what the poison-replay drills assert on). 0 disables.
	DeltaBias float64
	// PoisonFraction puts that share of the fleet under adversary
	// control, chosen deterministically per (Seed, device ID) via the
	// simulator's Adversary model — the §4.1 hub-and-spoke attack
	// replayed against the live server: each compromised device submits
	// its honest delta negated and boosted by PoisonScale. 0 disables.
	PoisonFraction float64
	// PoisonScale is the sign-flip boost factor (default 10 — large
	// enough that a median-factor norm screen sees the outliers).
	PoisonScale float64
	// Timeout bounds the whole run.
	Timeout time.Duration
	// JSONFraction is the share of devices on the JSON protocol — the
	// any-client baseline: no capability list, full broadcast every task
	// (0 = the whole fleet negotiates the binary tensor protocol and
	// tracks its base version for delta broadcast, 1 = all JSON). Mixed
	// fleets exercise both client kinds in the same rounds.
	JSONFraction float64
	// Client overrides the HTTP client (tests inject the httptest
	// client; the default is tuned for a many-device single-host fleet).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("fleet: need a base URL")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Devices <= 0 {
		c.Devices = 1000
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 20 * time.Millisecond
	}
	if c.ComputeScale < 0 {
		return c, fmt.Errorf("fleet: negative compute scale %v", c.ComputeScale)
	}
	if c.PoisonFraction < 0 || c.PoisonFraction > 1 {
		return c, fmt.Errorf("fleet: poison fraction %v outside [0, 1]", c.PoisonFraction)
	}
	if c.PoisonScale <= 0 {
		c.PoisonScale = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.JSONFraction < 0 || c.JSONFraction > 1 {
		return c, fmt.Errorf("fleet: JSON fraction %v outside [0, 1]", c.JSONFraction)
	}
	if c.Client == nil {
		tr := &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
		}
		c.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return c, nil
}

// LatencySummary is one operation's client-observed latency distribution in
// milliseconds.
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

func summarizeLatency(ms []float64) LatencySummary {
	s := metrics.Summarize(ms)
	return LatencySummary{Count: s.Count, P50: s.Median, P90: s.P90, P99: s.P99, Max: s.Max}
}

// Report is the load generator's result.
type Report struct {
	Devices int `json:"devices"`
	// BinaryDevices negotiate schemes and track their base version for
	// delta broadcast; JSONDevices speak the JSON protocol.
	BinaryDevices int `json:"binary_devices"`
	JSONDevices   int `json:"json_devices"`
	// PoisonedDevices is how many fleet devices the configured adversary
	// compromised (0 when PoisonFraction is 0).
	PoisonedDevices int           `json:"poisoned_devices,omitempty"`
	RoundsCommitted int           `json:"rounds_committed"`
	StartVersion    int           `json:"start_version"`
	EndVersion      int           `json:"end_version"`
	Wall            time.Duration `json:"wall_ns"`
	CheckIns        int64         `json:"checkins"`
	TasksReceived   int64         `json:"tasks_received"`
	// DeltaTasks counts tasks that arrived as delta frames against the
	// device's last-seen version rather than full broadcasts.
	DeltaTasks      int64 `json:"delta_tasks"`
	UpdatesAccepted int64 `json:"updates_accepted"`
	UpdatesRejected int64 `json:"updates_rejected"`
	NetErrors       int64 `json:"net_errors"`
	// RequestsPerSec counts every completed exchange — check-ins, task
	// polls whatever their answer (204 and 404 included, which is most
	// polls in a deadline-gated fleet) and update submissions —
	// the same way internal/vload counts them; net errors are not requests.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// BytesSent/BytesRecv are client-observed wire totals (request and
	// response bodies across the whole fleet), the load generator's view
	// of the codec's payload win.
	BytesSent      int64          `json:"bytes_sent"`
	BytesRecv      int64          `json:"bytes_received"`
	CheckInLatency LatencySummary `json:"checkin_latency"`
	TaskLatency    LatencySummary `json:"task_latency"`
	UpdateLatency  LatencySummary `json:"update_latency"`
	// FinalStatus is the job's detail document at fleet shutdown (nil
	// through a tier, which has no job detail document of its own).
	FinalStatus *coord.StatusReport `json:"final_status,omitempty"`
	// TierShards is the shard count of the gateway tier the fleet drove
	// (0 when the fleet targeted a flat server).
	TierShards int `json:"tier_shards,omitempty"`
}

// String renders the operator-facing summary cmd/flint-fleet prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices (%d delta-capable, %d json) drove v%d → v%d (%d rounds) in %.2fs\n",
		r.Devices, r.BinaryDevices, r.JSONDevices, r.StartVersion, r.EndVersion, r.RoundsCommitted, r.Wall.Seconds())
	if r.TierShards > 0 {
		fmt.Fprintf(&b, "  tier: routed through a %d-shard gateway\n", r.TierShards)
	}
	if r.PoisonedDevices > 0 {
		fmt.Fprintf(&b, "  adversary: %d devices compromised\n", r.PoisonedDevices)
	}
	if r.FinalStatus != nil {
		fmt.Fprintf(&b, "  model: L2 norm %.4f after v%d", r.FinalStatus.ModelNorm, r.EndVersion)
		if p := r.FinalStatus.Privacy; p != nil {
			fmt.Fprintf(&b, "  (ε spent %.3f over %d DP rounds, δ=%.0e)", p.EpsilonSpent, p.DPRounds, p.Delta)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  requests: %d check-ins, %d tasks (%d delta), %d updates accepted, %d rejected, %d net errors (%.0f req/s)\n",
		r.CheckIns, r.TasksReceived, r.DeltaTasks, r.UpdatesAccepted, r.UpdatesRejected, r.NetErrors, r.RequestsPerSec)
	perDev := func(total int64) string {
		if r.Devices == 0 {
			return "0 B"
		}
		return fmtBytes(total / int64(r.Devices))
	}
	fmt.Fprintf(&b, "  wire: sent %s, received %s (per device: %s out, %s in)\n",
		fmtBytes(r.BytesSent), fmtBytes(r.BytesRecv), perDev(r.BytesSent), perDev(r.BytesRecv))
	row := func(name string, l LatencySummary) {
		fmt.Fprintf(&b, "  %-8s n=%-7d p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms\n",
			name, l.Count, l.P50, l.P90, l.P99, l.Max)
	}
	row("checkin", r.CheckInLatency)
	row("task", r.TaskLatency)
	row("update", r.UpdateLatency)
	return b.String()
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// fleetTotals aggregates counters across device goroutines. polls counts
// completed task exchanges whatever their outcome; tasks the assigned ones.
type fleetTotals struct {
	checkins, polls, tasks, accepted, rejected, netErrs atomic.Int64
}

// bodyBufPool recycles response-body buffers across the fleet's protocol
// loops: a buffer per device would pin a broadcast-blob-sized slice for
// every goroutine. Buffers grow to the blob size once and are reused;
// nothing decoded from them escapes the exchange (codec and JSON decoding
// both copy into fresh values).
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type fleetDevice struct {
	id       int64
	model    string
	platform string
	profile  device.Profile
	modernOS bool
	weight   float64
	// binary devices speak the tensor protocol: capability negotiation
	// and delta tracking on /v1/task, client-side delta quantization on
	// /v1/update. The rest speak JSON.
	binary bool
	// poisoned devices mount the configured attack on every submission.
	poisoned bool
	rng      *rand.Rand
	// Per-exchange latencies in ms, collected locally (no cross-goroutine
	// contention) and merged at shutdown.
	latCheckin, latTask, latUpdate []float64
	// params/version mirror the device's last applied model state: the
	// base the server can serve deltas against. Only binary devices
	// maintain them.
	params  tensor.Vector
	version int
	// deltaTasks counts tasks received as delta frames.
	deltaTasks int64
	// Client-observed wire traffic (request/response bodies), merged
	// into the fleet totals at shutdown.
	bytesSent, bytesRecv int64
	// lastTrainDur is the most recent task's simulated training time,
	// reported to the server with the update as scheduler telemetry.
	lastTrainDur time.Duration
}

// Run executes the load generator and blocks until the server commits
// cfg.Rounds rounds (or the timeout fires, which is an error).
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pop := device.DefaultPopulation()
	pop.Seed = cfg.Seed
	sampled, err := pop.Sample(cfg.Devices)
	if err != nil {
		return nil, err
	}
	// The first jsonCount devices speak JSON; the rest negotiate schemes
	// and track deltas. Deterministic, so tests can assert the mix.
	jsonCount := int(math.Round(cfg.JSONFraction * float64(cfg.Devices)))
	// Compromise the configured fraction with the simulator's per-ID
	// deterministic adversary, so a given (seed, fleet) always replays
	// the same attacker set.
	adversary := aggregator.Adversary{
		Attack:   aggregator.SignFlip{Scale: cfg.PoisonScale},
		Fraction: cfg.PoisonFraction,
		Seed:     cfg.Seed,
	}
	poisonedCount := 0
	devs := make([]*fleetDevice, cfg.Devices)
	for i, s := range sampled {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		devs[i] = &fleetDevice{
			id:       cfg.IDOffset + int64(i+1),
			model:    s.Model,
			platform: string(s.Platform),
			profile:  s.Profile,
			modernOS: rng.Float64() < s.Profile.ModernOSProb,
			weight:   20 + float64(rng.Intn(180)),
			binary:   i >= jsonCount,
			poisoned: adversary.Compromised(cfg.IDOffset + int64(i+1)),
			rng:      rng,
		}
		if devs[i].poisoned {
			poisonedCount++
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	start := time.Now()
	cl := &Client{HTTP: cfg.Client, BaseURL: cfg.BaseURL, Job: cfg.Job, Token: cfg.Token}
	startVersion, tierShards, err := cl.Ready(ctx)
	if err != nil {
		return nil, err
	}
	end := cl.WatchRounds(ctx, cancel, 50*time.Millisecond, startVersion, cfg.Rounds)

	var totals fleetTotals
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *fleetDevice) {
			defer wg.Done()
			d.run(ctx, cfg, cl, &totals)
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	endVersion, final := end()

	var checkin, task, update []float64
	var bytesSent, bytesRecv, deltaTasks int64
	for _, d := range devs {
		checkin = append(checkin, d.latCheckin...)
		task = append(task, d.latTask...)
		update = append(update, d.latUpdate...)
		bytesSent += d.bytesSent
		bytesRecv += d.bytesRecv
		deltaTasks += d.deltaTasks
	}
	requests := totals.checkins.Load() + totals.polls.Load() +
		totals.accepted.Load() + totals.rejected.Load()
	rep := &Report{
		Devices:         cfg.Devices,
		BinaryDevices:   cfg.Devices - jsonCount,
		JSONDevices:     jsonCount,
		PoisonedDevices: poisonedCount,
		RoundsCommitted: endVersion - startVersion,
		StartVersion:    startVersion,
		EndVersion:      endVersion,
		Wall:            wall,
		CheckIns:        totals.checkins.Load(),
		TasksReceived:   totals.tasks.Load(),
		DeltaTasks:      deltaTasks,
		UpdatesAccepted: totals.accepted.Load(),
		UpdatesRejected: totals.rejected.Load(),
		NetErrors:       totals.netErrs.Load(),
		RequestsPerSec:  float64(requests) / wall.Seconds(),
		BytesSent:       bytesSent,
		BytesRecv:       bytesRecv,
		CheckInLatency:  summarizeLatency(checkin),
		TaskLatency:     summarizeLatency(task),
		UpdateLatency:   summarizeLatency(update),
		FinalStatus:     final,
		TierShards:      tierShards,
	}
	if target := startVersion + cfg.Rounds; endVersion < target {
		return rep, fmt.Errorf("fleet: timed out at version %d (wanted %d)", endVersion, target)
	}
	return rep, nil
}

// run is one device's protocol loop: check in with fresh session state,
// poll for a task, "train" for a profile-scaled interval, submit the delta.
// Every exchange that completes is counted here, at the client call site;
// one that fails in transport is a net error (unless the run is simply
// over).
func (d *fleetDevice) run(ctx context.Context, cfg Config, cl *Client, totals *fleetTotals) {
	netErr := func() {
		if ctx.Err() == nil {
			totals.netErrs.Add(1)
		}
	}
	// Stagger start-up so the fleet doesn't arrive as one spike.
	if !SleepCtx(ctx, time.Duration(d.rng.Int63n(int64(cfg.ThinkTime)+1))) {
		return
	}
	for {
		eligible, err := d.checkIn(ctx, cl)
		if err != nil {
			netErr()
			if !SleepCtx(ctx, cfg.ThinkTime) {
				return
			}
			continue
		}
		totals.checkins.Add(1)
		if eligible {
			task, err := d.fetchTask(ctx, cl)
			if err != nil {
				netErr()
			} else {
				totals.polls.Add(1)
			}
			if task != nil {
				totals.tasks.Add(1)
				train := d.trainTime(task.LocalSteps, cfg.ComputeScale)
				if !SleepCtx(ctx, train) {
					return
				}
				d.lastTrainDur = train
				accepted, err := d.submit(ctx, cfg, cl, task)
				switch {
				case err != nil:
					netErr()
				case accepted:
					totals.accepted.Add(1)
				default:
					totals.rejected.Add(1)
				}
			}
		}
		jitter := time.Duration(d.rng.Int63n(int64(cfg.ThinkTime) + 1))
		if !SleepCtx(ctx, cfg.ThinkTime/2+jitter) {
			return
		}
	}
}

// trainTime converts the device profile into a simulated local-training
// duration: slower chips straggle, reproducing the Table 5 spread.
func (d *fleetDevice) trainTime(steps int, scale float64) time.Duration {
	if scale == 0 {
		return 0
	}
	perStepMS := 0.05 / d.profile.MatmulGFLOPS
	return time.Duration(float64(time.Millisecond) * perStepMS * float64(steps) * scale)
}

// exchange runs one client call against a pooled body buffer, adding its
// wire traffic to the device's counters and — when it completed — its
// latency to lat.
func (d *fleetDevice) exchange(lat *[]float64, call func(buf *bytes.Buffer) (Result, error)) (Result, error) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer bodyBufPool.Put(buf)
	t0 := time.Now()
	res, err := call(buf)
	d.bytesSent += int64(res.Sent)
	d.bytesRecv += int64(res.Recv)
	if err == nil {
		*lat = append(*lat, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return res, err
}

// checkIn reports the device's session state and returns whether the
// server found it eligible.
func (d *fleetDevice) checkIn(ctx context.Context, cl *Client) (bool, error) {
	// Session attributes are re-drawn per check-in: device state changes
	// between sessions (§3.2), so eligibility flaps realistically.
	req := coord.CheckInRequest{
		DeviceID:    d.id,
		Model:       d.model,
		Platform:    d.platform,
		WiFi:        d.rng.Float64() < 0.72,
		BatteryHigh: d.rng.Float64() < 0.56,
		ModernOS:    d.modernOS,
		SessionSec:  30 + d.rng.ExpFloat64()*180,
		Weight:      d.weight,
	}
	if d.binary {
		// JSON devices advertise nothing and get the server's unfiltered
		// cohort policy.
		req.AcceptSchemes = AcceptSchemes
	}
	var out coord.CheckInResponse
	res, err := d.exchange(&d.latCheckin, func(buf *bytes.Buffer) (res Result, err error) {
		out, res, err = cl.CheckIn(ctx, buf, req)
		return res, err
	})
	return res.Outcome == OK && out.Eligible, err
}

// fetchTask polls for a task (nil when the server assigned none). A
// binary device names the version it holds so the server may answer with
// a delta frame.
func (d *fleetDevice) fetchTask(ctx context.Context, cl *Client) (*Task, error) {
	var task *Task
	_, err := d.exchange(&d.latTask, func(buf *bytes.Buffer) (res Result, err error) {
		task, res, err = cl.FetchTask(ctx, buf, d.id, d.binary, d.version)
		if task != nil && d.binary {
			err = d.adopt(task) // while the pooled buffer is still ours
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	return task, nil
}

// adopt rebuilds a binary task's parameters — folding a delta reply into
// the held version — and keeps them as the device's next delta base.
func (d *fleetDevice) adopt(task *Task) error {
	params, err := task.Rebuild(d.params, d.version)
	if err != nil {
		return err
	}
	if task.DeltaBase > 0 {
		d.deltaTasks++
	}
	d.params, d.version, task.Body = params, task.BaseVersion, nil
	return nil
}

// submit posts the device's synthetic update for the task and reports
// whether the server accepted it.
func (d *fleetDevice) submit(ctx context.Context, cfg Config, cl *Client, task *Task) (bool, error) {
	delta := make(tensor.Vector, task.Dim)
	for i := range delta {
		delta[i] = d.rng.NormFloat64()*deltaScale + cfg.DeltaBias
	}
	if d.poisoned {
		// Compromised devices submit the attack's version of their honest
		// delta — through the same wire path, so the server can't tell
		// attacker traffic apart except by the update's contents.
		delta = aggregator.SignFlip{Scale: cfg.PoisonScale}.Poison(aggregator.Update{ClientID: d.id, Delta: delta}, d.rng).Delta
	}
	u := Update{Device: d.id, Round: task.RoundID, BaseVersion: task.BaseVersion, Weight: d.weight}
	if !d.binary {
		res, err := d.exchange(&d.latUpdate, func(buf *bytes.Buffer) (Result, error) {
			return cl.SubmitJSON(ctx, buf, u, delta)
		})
		return res.Outcome == OK, err
	}
	// Quantize client-side with the scheme the server requested.
	scheme, err := codec.ParseScheme(task.UpdateScheme)
	if err != nil {
		return false, err
	}
	blob, err := codec.Encode(delta, scheme)
	if err != nil {
		return false, err
	}
	u.TrainMS = float64(d.lastTrainDur) / float64(time.Millisecond)
	res, err := d.exchange(&d.latUpdate, func(buf *bytes.Buffer) (Result, error) {
		return cl.SubmitTensor(ctx, buf, u, bytes.NewReader(blob))
	})
	if err == nil {
		d.bytesSent += int64(len(blob))
	}
	return res.Outcome == OK, err
}

// SleepCtx sleeps for d unless the context ends first; it reports whether
// the driver should keep running.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
