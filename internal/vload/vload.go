// Package vload is the virtual-time load plane: fedsim's population,
// availability, and link models driven against the real HTTP serving
// stack at fleet scales the goroutine-per-device generator cannot reach.
//
// Where internal/fleet's Run backs every simulated device with a
// goroutine (topping out around a thousand devices), vload multiplexes
// thousands of virtual devices per worker goroutine: each worker owns a
// partition of the fleet and an event heap (internal/vclock) keyed in
// *virtual* seconds, and replays wake → poll → train → update protocol
// traffic through the same wire-protocol client (fleet.Client) over a
// bounded keep-alive connection pool. The virtual
// clock runs at Compression virtual seconds per wall second — a full
// diurnal availability cycle over a million devices compresses into
// minutes of wall clock — and is allowed to fall behind when the system
// under test (or the generator host) cannot keep up; the achieved
// compression is reported so a shortfall is a measurement, not a silent
// distortion.
//
// The clock contract: every timing a device reports to the server
// (X-Flint-Down-Ms, X-Flint-Train-Ms, X-Flint-Up-Bytes/Up-Ms) is
// computed from its *simulated* link and compute in virtual seconds, so
// the scheduler's EWMAs converge to the true simulated rates no matter
// how hard time is compressed. The server is run with
// Sched.TimeCompression set to the same factor: its estimate plane
// divides virtual-domain estimates back into wall seconds, making the
// deadline gate and cohort decisions identical to an equivalent
// wall-clock fleet's (see sched.Config.TimeCompression).
package vload

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/network"
	"flint/internal/tensor"
	"flint/internal/vclock"
)

// The virtual population's fixed model. Each has one value in every run,
// so none is a setting.
const (
	// startHour is the virtual clock's hour-of-day at t=0: the diurnal
	// peak, so a short run begins with devices awake.
	startHour = 19
	// sessionMedianSec is the log-normal session-duration median in
	// virtual seconds.
	sessionMedianSec = 150
	// trainMedianSec is the log-normal median of the simulated local
	// training duration in virtual seconds.
	trainMedianSec = 20
	// wifiProb, batteryHighProb and modernOSProb are the Table 1
	// device-state marginals, modulated per session hour by the
	// availability curves.
	wifiProb        = 0.70
	batteryHighProb = 0.34
	modernOSProb    = 0.93
)

// link samples each device's persistent simulated link: a log-normal
// downlink around 4 Mbps with a fifth of the fleet on slow links, the
// uplink at 40% of it. The draw ignores the WiFi label, so the fleet
// holds fast "cellular" and slow "WiFi" devices for the scheduler's
// measured cohort map to correct.
var link = network.BandwidthModel{MedianMbps: 4, Sigma: 0.9, SlowFrac: 0.2, FloorMbps: 0.05}

// workerCount is the event-loop goroutine count for a fleet of the given
// size: 4 x GOMAXPROCS, capped at 64 and at the fleet size. Each worker
// multiplexes devices/workers virtual devices, and the count also bounds
// concurrent in-flight HTTP requests — it sizes the connection pool.
func workerCount(devices int) int {
	return min(4*runtime.GOMAXPROCS(0), 64, devices)
}

// Config drives one virtual-time load run.
type Config struct {
	// BaseURL is the server root (a flint-server, or a flint-gateway
	// when Gateway is set).
	BaseURL string
	// Gateway marks BaseURL as a shard-tier gateway: the run waits for
	// tier health and watches the rollup's top-level version for round
	// progress; device traffic is routed per device transparently
	// (batched check-ins are split across shards by the gateway).
	Gateway bool
	// Devices is the virtual fleet size.
	Devices int
	// Compression is the virtual-time rate: virtual seconds per wall
	// second (>= 1). The server must run with the same value in
	// Sched.TimeCompression for telemetry-driven decisions to match a
	// wall-clock fleet.
	Compression float64
	// VirtualDuration is how much virtual time to simulate (default one
	// full diurnal cycle, 24h).
	VirtualDuration time.Duration
	// Rounds, when > 0, stops the run early once the server has
	// committed that many rounds past the starting version.
	Rounds int
	Seed   int64
	// Batch is the registration/check-in batch size for
	// POST /v1/checkin/batch (default 2048).
	Batch int
	// Think is the mean *virtual* re-poll interval while a device sits
	// in a session without work (default 120 virtual seconds).
	Think time.Duration
	// SessionsPerDay is the per-device mean session count per virtual
	// day, modulated by the diurnal curve (default 3, the paper's ads
	// case study).
	SessionsPerDay float64
	// Timeout bounds the whole run in wall time.
	Timeout time.Duration
	// Client overrides the HTTP client (tests inject the httptest
	// client); the default sizes its idle pool to the worker count.
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("vload: need a base URL")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Devices <= 0 {
		c.Devices = 100_000
	}
	if c.Compression == 0 {
		c.Compression = 60
	}
	if c.Compression < 1 {
		return c, fmt.Errorf("vload: compression %v below 1", c.Compression)
	}
	if c.VirtualDuration <= 0 {
		c.VirtualDuration = 24 * time.Hour
	}
	if c.Batch <= 0 {
		c.Batch = 2048
	}
	if c.Think <= 0 {
		c.Think = 120 * time.Second
	}
	if c.SessionsPerDay <= 0 {
		c.SessionsPerDay = 3
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Minute
	}
	if c.Client == nil {
		pool := 2 * workerCount(c.Devices)
		tr := &http.Transport{
			MaxIdleConns:        pool,
			MaxIdleConnsPerHost: pool,
			IdleConnTimeout:     90 * time.Second,
		}
		c.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return c, nil
}

// hourAt maps a virtual timestamp (seconds since run start) to its
// virtual hour of day.
func hourAt(v float64) int {
	return int(math.Mod(startHour+v/3600, 24))
}

// Report is the load plane's result.
type Report struct {
	Devices int `json:"devices"`
	Workers int `json:"workers"`
	// Compression is the configured virtual rate;
	// AchievedCompression the rate actually sustained (virtual seconds
	// simulated per wall second — lower means the system under test or
	// the generator host was the bottleneck).
	Compression         float64 `json:"compression"`
	AchievedCompression float64 `json:"achieved_compression"`
	// VirtualSimulated is the virtual time the slowest worker reached.
	VirtualSimulated time.Duration `json:"virtual_simulated_ns"`
	Wall             time.Duration `json:"wall_ns"`
	// RegisterWall is the wall time of the initial registration storm;
	// RegisterPerSec its batched check-in throughput in devices/second.
	RegisterWall    time.Duration `json:"register_wall_ns"`
	RegisterPerSec  float64       `json:"register_devices_per_sec"`
	CheckIns        int64         `json:"checkins"`
	BatchRequests   int64         `json:"batch_requests"`
	Polls           int64         `json:"task_polls"`
	Tasks           int64         `json:"tasks_received"`
	UpdatesOK       int64         `json:"updates_accepted"`
	UpdatesErr      int64         `json:"updates_rejected"`
	NetErrors       int64         `json:"net_errors"`
	BytesSent       int64         `json:"bytes_sent"`
	BytesRecv       int64         `json:"bytes_received"`
	RoundsCommitted int           `json:"rounds_committed"`
	StartVersion    int           `json:"start_version"`
	EndVersion      int           `json:"end_version"`
	// RegistryBytesPerDev/SchedulerBytesPerDev echo the server's
	// /v1/status footprint section at shutdown (0 in gateway mode,
	// where the rollup nests per-shard documents instead).
	RegistryBytesPerDev  float64 `json:"registry_bytes_per_device,omitempty"`
	SchedulerBytesPerDev float64 `json:"scheduler_bytes_per_device,omitempty"`
	SchedDevices         int     `json:"sched_census_devices,omitempty"`
	TierShards           int     `json:"tier_shards,omitempty"`
	// FinalStatus is the server's shutdown snapshot (nil in gateway
	// mode).
	FinalStatus *coord.StatusReport `json:"final_status,omitempty"`
}

// String renders the operator-facing summary flint-fleet -virtual prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vload: %d virtual devices, %d workers: simulated %.1f virtual minutes in %.1fs wall (x%.0f asked, x%.0f achieved)\n",
		r.Devices, r.Workers, r.VirtualSimulated.Minutes(), r.Wall.Seconds(), r.Compression, r.AchievedCompression)
	fmt.Fprintf(&b, "  registration: %d devices in %.2fs (%.0f devices/sec over %d batch requests)\n",
		r.Devices, r.RegisterWall.Seconds(), r.RegisterPerSec, r.BatchRequests)
	fmt.Fprintf(&b, "  rounds: v%d -> v%d (%d committed)\n", r.StartVersion, r.EndVersion, r.RoundsCommitted)
	fmt.Fprintf(&b, "  requests: %d check-ins, %d polls, %d tasks, %d updates accepted, %d rejected, %d net errors\n",
		r.CheckIns, r.Polls, r.Tasks, r.UpdatesOK, r.UpdatesErr, r.NetErrors)
	fmt.Fprintf(&b, "  wire: sent %.1f MiB, received %.1f MiB\n",
		float64(r.BytesSent)/(1<<20), float64(r.BytesRecv)/(1<<20))
	if r.RegistryBytesPerDev > 0 {
		fmt.Fprintf(&b, "  footprint: %.0f B/device registry, %.0f B/device scheduler (census %d)\n",
			r.RegistryBytesPerDev, r.SchedulerBytesPerDev, r.SchedDevices)
	}
	if r.TierShards > 0 {
		fmt.Fprintf(&b, "  tier: routed through a %d-shard gateway\n", r.TierShards)
	}
	return b.String()
}

// Event kinds, packed with the device index into one int64 payload so
// heap events cost one small boxed integer, not a struct allocation.
const (
	evWake   = iota // session start: enqueue batched check-in, schedule first poll
	evPoll          // GET /v1/task
	evFinish        // POST /v1/update after simulated download + training
	evKinds
)

// vdev is one virtual device's resident state — a few dozen bytes, so a
// million-device fleet fits in the generator's memory the same way it
// must fit in the server's.
type vdev struct {
	id             int64
	downBps, upBps float32
	weight         float32
	sessionEnd     float64 // virtual seconds; 0 = offline
	wifi           bool
	battery        bool
	modern         bool
	pending        bool // awaiting batched check-in flush
	// In-flight task state (valid between evPoll's 200 and evFinish).
	round     uint64
	base      int32
	dim       int32
	scheme    string
	downBytes int32
	downV     float32 // virtual seconds the download took
	trainV    float32 // virtual seconds training will take
}

// totals aggregates counters across workers.
type totals struct {
	checkins, batches, polls, tasks atomic.Int64
	updatesOK, updatesErr, netErrs  atomic.Int64
	bytesSent, bytesRecv            atomic.Int64
}

// worker multiplexes a partition of the fleet over one goroutine: a
// vclock event heap in virtual seconds, paced against the wall clock at
// the configured compression (sleeping when ahead, running flat out when
// behind), with at most one HTTP request in flight per worker — the
// worker count IS the connection-pool bound.
type worker struct {
	cfg     *Config
	cl      *fleet.Client
	rng     *rand.Rand
	q       vclock.Queue
	devs    []vdev
	pending []int32
	vmax    float64
	vnow    float64
	tot     *totals
	// diurnalMean normalizes session-rate thinning (precomputed).
	diurnalMean float64
	// buf is the response-body scratch and batch the check-in request
	// scratch every exchange of this worker reuses (one request in
	// flight per worker).
	buf   bytes.Buffer
	batch []coord.CheckInRequest
}

func (w *worker) schedule(v float64, idx int32, kind int) {
	w.q.Push(vclock.Seconds(v), int64(idx)*evKinds+int64(kind))
}

// nextSessionStart samples the device's next wake-up by Poisson thinning
// against the diurnal intensity curve: candidate gaps are drawn at the
// peak rate and accepted with probability curve(hour)/peak, so the
// fleet's session arrivals breathe with the same daily shape the trace
// generator produces — without materializing a million-device session
// log.
func (w *worker) nextSessionStart(v float64) float64 {
	peakRate := w.cfg.SessionsPerDay / 86400 / w.diurnalMean
	for i := 0; i < 1_000_000; i++ {
		v += w.rng.ExpFloat64() / peakRate
		if w.rng.Float64() < availability.DiurnalIntensity(hourAt(v)) {
			return v
		}
	}
	return v
}

// wake opens a session: duration log-normal around the configured
// median, device state re-drawn with the hour-of-day shifts, and the
// check-in queued for the next batch flush. The first poll lands a few
// virtual seconds in (forcing the flush if the batch hasn't filled).
func (w *worker) wake(ctx context.Context, idx int32) {
	d := &w.devs[idx]
	hour := hourAt(w.vnow)
	dur := sessionMedianSec * math.Exp(w.rng.NormFloat64()*1.1)
	d.sessionEnd = w.vnow + dur
	d.wifi = w.rng.Float64() < clamp01(wifiProb+availability.WiFiShift(hour))
	d.battery = w.rng.Float64() < clamp01(batteryHighProb+availability.BatteryShift(hour))
	w.enqueue(idx)
	if len(w.pending) >= w.cfg.Batch {
		w.flushCheckIns(ctx)
	}
	w.schedule(w.vnow+1+4*w.rng.Float64(), idx, evPoll)
}

// endSession schedules the device's next diurnal wake-up (if it lands
// inside the simulated horizon).
func (w *worker) endSession(idx int32) {
	next := w.nextSessionStart(w.vnow)
	if next < w.vmax {
		w.schedule(next, idx, evWake)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// checkInReq renders the device's current session state as a check-in
// wire record. SessionSec is converted to the wall domain: the server's
// TTLs and deadlines run on the wall clock, so a virtual-domain number
// would overstate availability by the compression factor.
func (w *worker) checkInReq(idx int32) coord.CheckInRequest {
	d := &w.devs[idx]
	left := d.sessionEnd - w.vnow
	if left < 0 {
		left = 0
	}
	return coord.CheckInRequest{
		DeviceID:      d.id,
		Model:         "vload-sim",
		Platform:      "android",
		WiFi:          d.wifi,
		BatteryHigh:   d.battery,
		ModernOS:      d.modern,
		SessionSec:    left / w.cfg.Compression,
		Weight:        float64(d.weight),
		AcceptSchemes: fleet.AcceptSchemes,
	}
}

// count adds one exchange's wire traffic to the totals and reports
// whether it completed; a transport failure is a net error unless the
// run is simply over.
func (w *worker) count(ctx context.Context, res fleet.Result, err error) bool {
	w.tot.bytesSent.Add(int64(res.Sent))
	w.tot.bytesRecv.Add(int64(res.Recv))
	if err != nil && ctx.Err() == nil {
		w.tot.netErrs.Add(1)
	}
	return err == nil
}

// flushCheckIns posts the pending batch. Check-ins are idempotent, so a
// failed batch is just retried by each device's next wake; the devices
// are unmarked either way.
func (w *worker) flushCheckIns(ctx context.Context) {
	if len(w.pending) == 0 {
		return
	}
	w.batch = w.batch[:0]
	for _, idx := range w.pending {
		w.batch = append(w.batch, w.checkInReq(idx))
		w.devs[idx].pending = false
	}
	w.pending = w.pending[:0]
	_, res, err := w.cl.CheckInBatch(ctx, &w.buf, w.batch)
	if !w.count(ctx, res, err) {
		return
	}
	if res.Outcome != fleet.OK {
		w.tot.netErrs.Add(1)
		return
	}
	w.tot.batches.Add(1)
	w.tot.checkins.Add(int64(len(w.batch)))
}

// enqueue marks the device for the next batched check-in.
func (w *worker) enqueue(idx int32) {
	if d := &w.devs[idx]; !d.pending {
		d.pending = true
		w.pending = append(w.pending, idx)
	}
}

// poll is one GET /v1/task. It returns true when a task was accepted and
// evFinish scheduled; false means the device should re-poll (or its
// session lapsed).
func (w *worker) poll(ctx context.Context, idx int32) bool {
	d := &w.devs[idx]
	task, res, err := w.cl.FetchTask(ctx, &w.buf, d.id, true, 0)
	if !w.count(ctx, res, err) {
		return false
	}
	w.tot.polls.Add(1)
	switch res.Outcome {
	case fleet.OK:
	case fleet.NoTask:
		return false
	case fleet.UnknownDevice:
		// Swept between sessions (or the batch that carried its check-in
		// failed). Re-enqueue the registration; the next poll finds it
		// live.
		w.enqueue(idx)
		return false
	default:
		w.tot.netErrs.Add(1)
		return false
	}
	w.tot.tasks.Add(1)
	d.round, d.base, d.dim = task.RoundID, int32(task.BaseVersion), int32(task.Dim)
	d.scheme = task.UpdateScheme
	// The blob download and local training cost *virtual* time: the
	// device's simulated link rate and compute, not the loopback wire.
	downV := float64(res.Recv) / float64(d.downBps)
	trainV := trainMedianSec * math.Exp(w.rng.NormFloat64()*0.8)
	d.downBytes, d.downV, d.trainV = int32(res.Recv), float32(downV), float32(trainV)
	w.schedule(w.vnow+downV+trainV, idx, evFinish)
	return true
}

// blobCache shares the deterministic update payload per (scheme, dim):
// every virtual device's "training result" is the same tiny alternating
// delta, encoded once and replayed verbatim — at a million devices the
// load plane cannot afford an O(dim) encode per update, and the serving
// stack under test never inspects update contents beyond validation.
var blobCache sync.Map // "scheme|dim" -> []byte

func updateBlob(scheme string, dim int) ([]byte, error) {
	key := scheme + "|" + strconv.Itoa(dim)
	if v, ok := blobCache.Load(key); ok {
		return v.([]byte), nil
	}
	sch, err := codec.ParseScheme(scheme)
	if err != nil {
		sch = codec.F32
	}
	delta := make(tensor.Vector, dim)
	for i := range delta {
		delta[i] = 1e-3 * (1 - 2*float64(i%2))
	}
	blob, err := codec.Encode(delta, sch)
	if err != nil {
		return nil, err
	}
	actual, _ := blobCache.LoadOrStore(key, blob)
	return actual.([]byte), nil
}

// finish is one POST /v1/update: the cached blob with the device's
// virtual-clock telemetry — download transfer, training duration, and
// (because the wall-clock body transfer is loopback noise under
// compression) the uplink transfer too, all in virtual milliseconds. This
// is the feed that makes the scheduler's EWMAs equal the simulated link
// rates.
func (w *worker) finish(ctx context.Context, idx int32) {
	d := &w.devs[idx]
	blob, err := updateBlob(d.scheme, int(d.dim))
	if err != nil {
		w.tot.netErrs.Add(1)
		return
	}
	res, err := w.cl.SubmitTensor(ctx, &w.buf, fleet.Update{
		Device:      d.id,
		Round:       d.round,
		BaseVersion: int(d.base),
		Weight:      float64(d.weight),
		DownBytes:   int(d.downBytes),
		DownMS:      float64(d.downV) * 1000,
		TrainMS:     float64(d.trainV) * 1000,
		UpBytes:     len(blob),
		UpMS:        float64(len(blob)) / float64(d.upBps) * 1000,
	}, bytes.NewReader(blob))
	if !w.count(ctx, res, err) {
		return
	}
	w.tot.bytesSent.Add(int64(len(blob)))
	if res.Outcome == fleet.OK {
		w.tot.updatesOK.Add(1)
	} else {
		w.tot.updatesErr.Add(1)
	}
}

// run is the worker's event loop: pop the next virtual event, pace the
// wall clock to the compression rate (sleep when ahead of schedule, run
// flat out when behind), handle it. It returns the virtual time reached.
func (w *worker) run(ctx context.Context, start time.Time) float64 {
	for {
		ev, ok := w.q.Pop()
		if !ok || float64(ev.Time) > w.vmax {
			// Horizon reached (or no device has anything left to do).
			w.flushCheckIns(ctx)
			return w.vmax
		}
		w.vnow = float64(ev.Time)
		targetWall := time.Duration(w.vnow / w.cfg.Compression * float64(time.Second))
		if ahead := targetWall - time.Since(start); ahead > 0 {
			if !fleet.SleepCtx(ctx, ahead) {
				return w.vnow
			}
		}
		if ctx.Err() != nil {
			return w.vnow
		}
		p := ev.Payload.(int64)
		idx, kind := int32(p/evKinds), int(p%evKinds)
		d := &w.devs[idx]
		switch kind {
		case evWake:
			w.wake(ctx, idx)
		case evPoll:
			if d.pending {
				// The device's check-in is still queued: flush before the
				// poll so the server knows it.
				w.flushCheckIns(ctx)
			}
			if w.vnow >= d.sessionEnd {
				w.endSession(idx)
				continue
			}
			if !w.poll(ctx, idx) {
				think := float64(w.cfg.Think) / float64(time.Second) * (0.5 + w.rng.Float64())
				w.schedule(w.vnow+think, idx, evPoll)
			}
		case evFinish:
			w.finish(ctx, idx)
			if w.vnow >= d.sessionEnd {
				w.endSession(idx)
			} else {
				think := float64(w.cfg.Think) / float64(time.Second) * (0.5 + w.rng.Float64())
				w.schedule(w.vnow+think, idx, evPoll)
			}
		}
	}
}

// Run executes the virtual-time load plane and blocks until the
// simulated horizon is reached, the configured round count commits, or
// the wall timeout fires.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	cl := &fleet.Client{HTTP: cfg.Client, BaseURL: cfg.BaseURL, Gateway: cfg.Gateway}
	var tot totals
	meanD := 0.0
	for h := 0; h < 24; h++ {
		meanD += availability.DiurnalIntensity(h)
	}
	meanD /= 24

	// Partition the fleet across workers (contiguous ranges; device IDs
	// are 1..Devices) and sample each device's persistent link and
	// identity attributes.
	workers := make([]*worker, workerCount(cfg.Devices))
	per := (cfg.Devices + len(workers) - 1) / len(workers)
	for wi := range workers {
		lo, hi := wi*per, (wi+1)*per
		if hi > cfg.Devices {
			hi = cfg.Devices
		}
		if lo > hi {
			lo = hi // more workers than device ranges: an idle worker
		}
		w := &worker{
			cfg:         &cfg,
			cl:          cl,
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(wi)*7919)),
			devs:        make([]vdev, hi-lo),
			vmax:        cfg.VirtualDuration.Seconds(),
			tot:         &tot,
			diurnalMean: meanD,
		}
		for i := range w.devs {
			d := &w.devs[i]
			d.id = int64(lo + i + 1)
			down := link.SampleBps(w.rng)
			d.downBps, d.upBps = float32(down), float32(down*0.4)
			d.weight = float32(20 + w.rng.Intn(180))
			d.modern = w.rng.Float64() < modernOSProb
			d.wifi = w.rng.Float64() < wifiProb
			d.battery = w.rng.Float64() < batteryHighProb
		}
		workers[wi] = w
	}

	startVersion, tierShards, err := cl.Ready(ctx)
	if err != nil {
		return nil, err
	}

	// Phase 1 — the registration storm: every device batch-checked-in
	// flat out. This is the devices/sec figure: pure batched check-in
	// throughput against the live registry.
	regStart := time.Now()
	var regWG sync.WaitGroup
	for _, w := range workers {
		if len(w.devs) == 0 {
			continue
		}
		regWG.Add(1)
		go func(w *worker) {
			defer regWG.Done()
			for i := range w.devs {
				w.enqueue(int32(i))
				if len(w.pending) >= cfg.Batch {
					w.flushCheckIns(ctx)
				}
			}
			w.flushCheckIns(ctx)
		}(w)
	}
	regWG.Wait()
	regWall := time.Since(regStart)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("vload: timed out during registration")
	}

	// Phase 2 — the diurnal day: each device's first wake-up sampled
	// from the intensity curve, then the event loops run the protocol.
	for _, w := range workers {
		for i := range w.devs {
			if v := w.nextSessionStart(0); v < w.vmax {
				w.schedule(v, int32(i), evWake)
			}
		}
	}

	// Round watcher: stop early once the target version lands.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	var endVersion atomic.Int64
	endVersion.Store(int64(startVersion))
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if st, err := cl.Status(runCtx); err == nil {
					endVersion.Store(int64(st.Version))
					if cfg.Rounds > 0 && st.Version >= startVersion+cfg.Rounds {
						stopRun()
						return
					}
				}
			}
		}
	}()

	start := time.Now()
	reached := make([]float64, len(workers))
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			reached[wi] = w.run(runCtx, start)
		}(wi, w)
	}
	wg.Wait()
	stopRun()
	<-watchDone
	wall := time.Since(start)

	vmin := cfg.VirtualDuration.Seconds()
	for wi, w := range workers {
		if len(w.devs) > 0 && reached[wi] < vmin {
			vmin = reached[wi]
		}
	}
	rep := &Report{
		Devices:          cfg.Devices,
		Workers:          len(workers),
		Compression:      cfg.Compression,
		VirtualSimulated: time.Duration(vmin * float64(time.Second)),
		Wall:             wall,
		RegisterWall:     regWall,
		RegisterPerSec:   float64(cfg.Devices) / regWall.Seconds(),
		CheckIns:         tot.checkins.Load(),
		BatchRequests:    tot.batches.Load(),
		Polls:            tot.polls.Load(),
		Tasks:            tot.tasks.Load(),
		UpdatesOK:        tot.updatesOK.Load(),
		UpdatesErr:       tot.updatesErr.Load(),
		NetErrors:        tot.netErrs.Load(),
		BytesSent:        tot.bytesSent.Load(),
		BytesRecv:        tot.bytesRecv.Load(),
		StartVersion:     startVersion,
		TierShards:       tierShards,
	}
	if wall > 0 {
		rep.AchievedCompression = vmin / wall.Seconds()
	}
	// Final status (fresh context: the run context may have expired).
	finalCtx, cancelFinal := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelFinal()
	if st, err := cl.Status(finalCtx); err == nil {
		endVersion.Store(int64(st.Version))
		if !cfg.Gateway {
			rep.FinalStatus = st
			rep.RegistryBytesPerDev = st.Scheduler.Footprint.RegistryBytesPerDev
			rep.SchedulerBytesPerDev = st.Scheduler.Footprint.SchedulerBytesPerDev
			rep.SchedDevices = st.Scheduler.Devices
		}
	}
	rep.EndVersion = int(endVersion.Load())
	rep.RoundsCommitted = rep.EndVersion - rep.StartVersion
	if cfg.Rounds > 0 && rep.RoundsCommitted < cfg.Rounds {
		return rep, fmt.Errorf("vload: stopped at version %d (wanted %d committed rounds past %d)",
			rep.EndVersion, cfg.Rounds, rep.StartVersion)
	}
	return rep, nil
}
