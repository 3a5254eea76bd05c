package coord

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/metrics"
	"flint/internal/model"
	"flint/internal/modelstore"
	"flint/internal/round"
	"flint/internal/sched"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// Sentinel errors surfaced to transports.
var (
	// ErrBusy means the ingest queue is full; the client should back off
	// and resubmit.
	ErrBusy = errors.New("coord: ingest queue full")
	// ErrNoTask means no task is available for the device right now.
	ErrNoTask = errors.New("coord: no task available")
	// ErrUnknownDevice means the device never checked in (or was swept).
	ErrUnknownDevice = errors.New("coord: unknown device")
	// ErrClosed means the coordinator is shutting down.
	ErrClosed = errors.New("coord: coordinator closed")
)

// Task is one unit of device work: train LocalSteps from BaseVersion and
// send back the delta.
type Task struct {
	RoundID     uint64
	BaseVersion int
	ModelKind   model.Kind
	// Dim is the flat parameter count; Params is the global vector at
	// BaseVersion. The slice is shared and must be treated as read-only.
	Dim    int
	Params tensor.Vector
	// EncodedParams is the codec blob binary devices receive: the full
	// parameter vector under TaskScheme, or — when DeltaBase is set — a
	// delta frame against that published version. Blobs are cached per
	// (version, scheme) and shared read-only across requests (nil when
	// the client didn't negotiate the binary protocol).
	EncodedParams []byte
	// TaskScheme is the encoding EncodedParams was produced under (the
	// negotiated cohort's broadcast or delta scheme).
	TaskScheme codec.Scheme
	// DeltaBase, when > 0, marks EncodedParams as a delta frame to be
	// applied against the device's copy of that published version.
	DeltaBase int
	// Cohort names the transport cohort the device negotiated into.
	Cohort string
	// UpdateScheme is the delta encoding the server asks binary devices
	// to use when submitting this task's result.
	UpdateScheme codec.Scheme
	LocalSteps   int
	Deadline     time.Time

	// plane is the broadcast plane the task was cut from; the JSON task
	// path renders its params array through the plane's artifact cache.
	plane *broadcastState
}

// TaskQuery is the transport context a device sends with a task request:
// its last-seen model version (the delta-broadcast base), an optional
// per-request capability list overriding its check-in advertisement, and
// whether it negotiated the binary protocol at all (JSON clients skip
// blob encoding entirely).
type TaskQuery struct {
	// BaseVersion is the published version the device already holds
	// (0 = none): when it is still in the coordinator's version ring,
	// the task ships a delta frame instead of the full vector.
	BaseVersion int
	// Accept overrides the device's check-in capability list for this
	// request when non-nil (the X-Flint-Accept-Schemes header echo).
	Accept []codec.Kind
	// Binary marks a tensor-protocol client; only those receive
	// EncodedParams.
	Binary bool
}

// Submission is one device's completed task result. The coordinator
// takes ownership of Delta: the slice is retained in the round buffer
// until aggregation (which, in async mode, can be a later round than the
// one that accepted it), so the caller must not mutate it after
// SubmitUpdate returns.
type Submission struct {
	DeviceID    int64
	RoundID     uint64
	BaseVersion int
	Weight      float64
	Delta       tensor.Vector
	// Payload optionally carries the update still in wire form (a
	// validated codec.Payload) instead of a decoded Delta: the commit
	// pipeline's fused kernels aggregate straight out of the pooled
	// wire bytes, and the buffer goes back to the codec pool when the
	// accepting round goes terminal. SubmitUpdate takes ownership on
	// EVERY outcome, success or error — the caller must not touch the
	// Payload after the call. Set exactly one of Delta and Payload.
	Payload *codec.Payload
}

// release returns the submission's pooled payload (if any) to the codec
// pool — the rejection-path exit; accepted payloads are released by the
// round that buffered them.
func (s *Submission) release() {
	if s.Payload != nil {
		s.Payload.Release()
		s.Payload = nil
	}
}

// CheckInResult is the coordinator's reply to a device check-in.
type CheckInResult struct {
	New      bool
	Eligible bool
	// OverQuota marks a rejected check-in: the device is new and the
	// job's MaxDevices quota is full. The device was not registered;
	// transports answer 429 and the device should retry later (sweeps
	// free slots as stale devices age out).
	OverQuota bool
	Version   int
	RoundID   uint64
	// Cohort and Policy report the transport assignment negotiated from
	// the device's advertised platform/connectivity and capability
	// list, so clients learn their schemes up front.
	Cohort string
	Policy transport.Policy
}

// RoundStatus is the externally visible state of the current round.
type RoundStatus struct {
	ID        uint64    `json:"id"`
	Phase     Phase     `json:"phase"`
	Base      int       `json:"base_version"`
	Assigned  int       `json:"assigned"`
	Collected int       `json:"collected"`
	Target    int       `json:"target"`
	Quorum    int       `json:"quorum"`
	Deadline  time.Time `json:"deadline"`
}

// StatusReport is the /v1/status payload.
type StatusReport struct {
	Mode      Mode        `json:"mode"`
	ModelKind model.Kind  `json:"model_kind"`
	ModelName string      `json:"model_name"`
	Version   int         `json:"version"`
	Round     RoundStatus `json:"round"`
	Devices   Stats       `json:"devices"`
	// Scheduler is the scheduling plane's fleet view: measured-device
	// census, per-cohort bandwidth histograms, straggler quantiles, and
	// the live over-commit scale.
	Scheduler sched.Report     `json:"scheduler"`
	Counters  map[string]int64 `json:"counters"`
	Recent    []RoundSummary   `json:"recent_rounds,omitempty"`
	// Aggregation names the effective commit reducer (e.g.
	// "parallel(trimmed-mean)").
	Aggregation string `json:"aggregation"`
	// ModelNorm is the L2 norm of the published parameter vector — the
	// fleet-visible drift metric the poison-replay drills assert on.
	ModelNorm float64 `json:"model_norm"`
	// Privacy is the DP stage's accountant view; nil when DP is off.
	Privacy *aggregator.PrivacyReport `json:"privacy,omitempty"`
}

// serving pairs the current round with the broadcast plane it trains
// from. The task path loads the pair with one atomic read, so a task can
// never mix one round's metadata with another version's payload — the
// snapshot-consistency invariant the pointer swap exists for.
type serving struct {
	round *Round
	bcast *broadcastState
}

// persistReq is one write-behind job: flush version to the backing
// directory, then apply the store's retention rule as of that version.
// barrier marks the every-Nth-commit fsync: the flush is not considered
// done until the bytes are on stable storage, bounding how many
// snapshots a host crash (not just a process crash) can lose.
type persistReq struct {
	version int
	barrier bool
}

// persistQueueDepth bounds the write-behind backlog. A full queue makes
// the commit pipeline wait for the disk — bounded memory beats unbounded
// deferral — but the serving paths never notice either way.
const persistQueueDepth = 16

// recentRounds bounds the finished-round log /v1/status reports.
const recentRounds = 8

// persistBarrier makes every Nth committed version an fsync-ed
// write-behind flush, bounding how many snapshots a host crash can lose
// to the page cache.
const persistBarrier = 8

// registryShards is the striped-lock shard count of the device registry:
// enough stripes that check-in, task and update traffic rarely contend
// on one lock.
const registryShards = 64

// Coordinator is the live federated training server: it tracks the device
// fleet in a sharded registry, runs the round lifecycle, folds updates via
// an aggregator.Strategy, and publishes model versions to the store.
//
// State is split across two planes. The *broadcast plane* is an immutable
// broadcastState (published params, version ring, lazy artifact cache)
// paired with the current round behind one atomic pointer: check-in,
// task, and status requests only ever load that pointer plus per-object
// O(1) locks (registry shards, the round's own mutex), so the serving
// paths share no mutex with the commit pipeline and never block on
// aggregation, encoding, or disk. The *round plane* — round lifecycle
// transitions and the commit pipeline — stays under mu, which only the
// ingest worker, the deadline watchdog and, in hierarchical mode, a parked
// round's exchange goroutine take; the last publishes the tier's install
// under it (installGlobal).
//
// Each version is one buffer (codec.VersionBuf): the checkpoint header,
// then the raw64 blob of the params. The published params, their ring
// entry, the store's checkpoint and the raw64 task blob are views of it,
// and nothing writes it once it is sealed. A commit is a staged pipeline
// under mu: (1) sharded parallel aggregation into a fresh buffer that
// starts as a copy of the published params, then DP and the seal, (2)
// building the successor broadcastState off to the side — a ring append;
// nothing is encoded, the plane derives each other wire artifact when a
// device first asks for it, (3) inserting the buffer into the store in
// memory, swapping the serving pointer, and handing the disk write to a
// write-behind worker (publish_pending counts the backlog). A failed
// commit drops its buffer; the published one was never touched.
type Coordinator struct {
	cfg      Config
	reg      *Registry
	store    *modelstore.Store
	strategy aggregator.Strategy
	// screen is the commit pipeline's pre-reduce norm-outlier rejection
	// layer (zero value = disabled); dp is the post-reduce clip-and-noise
	// stage (nil = disabled).
	screen     aggregator.NormScreen
	dp         *aggregator.DP
	counters   *metrics.CounterSet
	negotiator *transport.Negotiator
	// sched is the scheduling plane: measured-bandwidth cohort map,
	// deadline gate, and straggler-tail over-commit, rebuilt from the
	// registry's telemetry census by the watchdog.
	sched *sched.Scheduler
	// rebuildMu serializes fleet-census rebuilds and guards schedCensus,
	// the sample buffer reused across them (tens of megabytes at a
	// million-device census — reallocating it every rebuild period would
	// dominate the rebuild's allocation bill). The watchdog runs rebuilds
	// asynchronously and TryLocks: a census still walking when the next
	// cadence tick fires means the fleet outgrew the cadence, and the
	// right move is skipping the tick — never queueing a second walk, and
	// never stalling deadline enforcement behind an O(fleet) scan.
	rebuildMu   sync.Mutex
	rebuildWG   sync.WaitGroup
	schedCensus []sched.DeviceSample
	// dim is the immutable flat parameter count.
	dim int
	// ckptHdr is the checkpoint header of the model's kind: the prefix of
	// every version buffer.
	ckptHdr []byte

	// serving is the atomically swapped (round, broadcast plane) pair —
	// the one home of the published version, the round id and the
	// deadline. Every lock-free reader loads it once.
	serving atomic.Pointer[serving]

	// mu is the round-plane lock: it serializes the commit/abandon
	// pipeline (round lifecycle edges, aggregation, version builds, store
	// inserts, serving swaps). Only the ingest worker, the watchdog and a
	// parked round's exchange goroutine (installGlobal, which publishes
	// under it) take it — never a request handler.
	mu sync.Mutex
	// noise is the held DP draw: the noise of version noiseFor, the one a
	// commit of the serving round publishes, begun when that round opened
	// so the draw runs while the round collects (nil with DP off). Guarded
	// by mu.
	noise    *aggregator.DPCommit
	noiseFor int

	// historyMu guards the finished-round log: the last recentRounds
	// committed/abandoned rounds, which /v1/status returns whole.
	historyMu sync.Mutex
	history   []RoundSummary

	ingest  chan Submission
	persist chan persistReq
	done    chan struct{}
	// loopWG tracks the ingest worker and watchdog; persistWG tracks the
	// write-behind worker, which drains after the loops stop so Close
	// never loses a queued disk write. exchWG tracks hierarchical-mode
	// exchange goroutines (at most one in flight: a parked round blocks
	// its successor until its install lands).
	loopWG    sync.WaitGroup
	exchWG    sync.WaitGroup
	persistWG sync.WaitGroup
	closed    atomic.Bool
}

// New builds and starts a coordinator: it initializes the model, publishes
// version 1, opens round 1, and starts the ingest worker, the deadline
// watchdog, and the write-behind persister. Call Close to stop.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m, err := model.New(cfg.ModelKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	hdr, err := model.Frame(m.Kind())
	if err != nil {
		return nil, err
	}
	store, err := modelstore.New(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	negotiator, err := transport.NewNegotiator(cfg.Transport)
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.New(cfg.Sched)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		reg:        NewRegistry(registryShards, cfg.DeviceTTL),
		store:      store,
		counters:   metrics.NewCounterSet(),
		negotiator: negotiator,
		sched:      scheduler,
		dim:        m.NumParams(),
		ckptHdr:    hdr,
		ingest:     make(chan Submission, cfg.QueueDepth),
		persist:    make(chan persistReq, persistQueueDepth),
		done:       make(chan struct{}),
	}
	// Every installed strategy is coordinate-separable, so the commit
	// pipeline's aggregation shards across cores and stays bit-identical
	// to the sequential fold — the robust column reducers included (their
	// per-coordinate selection is deterministic). Screen folds the
	// post-aggregate non-finite sweep into the same pass, per worker
	// range, while the accumulator is still cache-hot.
	c.strategy = aggregator.Parallel{
		Inner:  cfg.Aggregation.Reducer(cfg.Mode == ModeAsync, aggregator.FedBuff{ServerLR: cfg.ServerLR, Alpha: cfg.StalenessAlpha}),
		Screen: true,
	}
	c.screen = cfg.Aggregation.Screen()
	c.dp = aggregator.NewDP(cfg.DP)
	// Version 1 enters the store as every commit's does, but persisted
	// synchronously and fsync-ed: a directory that cannot take it fails New.
	buf := codec.NewVersionBuf(c.ckptHdr, c.dim)
	copy(buf.Params(), m.Params())
	buf.Seal()
	if err := store.PutAt(cfg.ModelName, 1, buf.Bytes()); err != nil {
		return nil, err
	}
	if err := store.Persist(cfg.ModelName, 1, true); err != nil {
		return nil, err
	}
	bs := newBroadcastState(1, buf.Params(), buf.Bytes()[len(c.ckptHdr):], nil, cfg.Transport.RingDepth())
	// Pre-register every serving counter so a status page always carries
	// the full zeroed key set before first traffic (a dashboard shouldn't
	// have to guess whether a missing key is "no deltas yet" or "too old
	// a server") — and, in the multi-tenant plane, so a freshly
	// registered job's /v1/jobs/<job>/status looks identical in shape to
	// a busy one's.
	for _, name := range []string{
		"checkin_total", "checkin_eligible", "checkin_rejected_quota",
		"checkin_unknown_scheme", "checkin_batch", "heartbeat_total",
		"task_assigned", "task_denied_round", "task_denied_device",
		"task_denied_deadline", "task_probe_admitted",
		"task_sent_binary", "task_sent_json", "task_sent_delta",
		"task_unknown_scheme", "auth_rejected_token",
		"broadcast_bytes_full", "broadcast_bytes_delta",
		"delta_cache_hits", "delta_cache_misses", "delta_base_aged",
		"update_enqueued", "update_accepted", "update_recv_binary",
		"update_recv_json", "update_rejected_dim",
		"update_rejected_nonfinite", "update_rejected_busy",
		"update_rejected_unassigned", "update_rejected_future",
		"update_rejected_stale", "update_rejected_late",
		"update_rejected_oversize", "update_lazy_payload",
		"updates_aggregated", "updates_screened_norm", "dp_rounds",
		"rounds_committed", "rounds_abandoned", "round_fsm_error",
		"round_aggregate_error", "round_aggregate_nonfinite",
		"round_aggregate_robust_error", "round_publish_error",
		"publish_pending", "persist_error", "persist_retry",
		"persist_barrier", "versions_pruned", "devices_swept",
		"transport_fallback_f32", "sched_rebuilds", "sched_rebuild_skipped",
		"task_cohort_" + transport.CohortDefault, "task_cohort_" + transport.CohortLowBW,
	} {
		c.counters.Counter(name)
	}
	for _, name := range exchangeCounters {
		c.counters.Counter(name)
	}
	r := c.newRound(1, bs, time.Now())
	c.serving.Store(&serving{round: r, bcast: bs})
	c.loopWG.Add(2)
	go c.ingestLoop()
	go c.watchdog()
	c.persistWG.Add(1)
	go c.persistLoop()
	return c, nil
}

// newRound opens the next round against broadcast plane bs. Sync rounds
// are provisioned with the scheduler's deadline-driven over-commit: the
// configured base scaled by the fleet's measured on-time fraction, so a
// straggler-heavy census buys more duplicate assignments and the round
// still closes by its deadline. With DP on, the noise of the version the
// round would publish is drawn from here on: it depends on (seed,
// version) alone, so a round reopened on the same plane keeps the held
// draw, and a new plane releases it for the next version's. Callers hold
// mu, or own the coordinator alone (New).
func (c *Coordinator) newRound(id uint64, bs *broadcastState, now time.Time) *Round {
	if c.dp != nil && (c.noise == nil || c.noiseFor != bs.version+1) {
		c.noise.Release()
		c.noise, c.noiseFor = c.dp.Begin(bs.version+1, c.dim), bs.version+1
	}
	maxAssign := int(float64(c.cfg.TargetUpdates) * c.sched.OverCommit(c.cfg.OverCommit))
	if c.cfg.Mode == ModeAsync {
		maxAssign = c.cfg.MaxInflight
	}
	rule := round.Rule{Target: c.cfg.TargetUpdates, Quorum: c.cfg.Quorum, MaxAssign: maxAssign}
	return newRound(id, bs.version, rule, now, now.Add(c.cfg.RoundDeadline))
}

// Close stops the ingest worker and watchdog (dropping any queued
// updates), then flushes the write-behind queue so every committed
// version reaches disk before Close returns.
func (c *Coordinator) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.done)
		c.loopWG.Wait()
		// The watchdog spawns async census rebuilds; wait out any
		// in-flight walk so Close never leaves a goroutine scanning a
		// registry its owner considers stopped.
		c.rebuildWG.Wait()
		// The loops spawn exchange goroutines, so they stop first; an
		// in-flight install may still be publishing under mu.
		c.exchWG.Wait()
		// No round opens past this point: stop the held DP draw and wait
		// for its goroutine.
		c.mu.Lock()
		c.noise.Release()
		c.noise = nil
		c.mu.Unlock()
		// No commit can run past this point, so the persist channel has
		// no senders left; closing it drains the worker cleanly.
		close(c.persist)
		c.persistWG.Wait()
	}
}

// Config returns the effective (defaulted) configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Counters exposes the serving counters.
func (c *Coordinator) Counters() *metrics.CounterSet { return c.counters }

// Store exposes the versioned model store.
func (c *Coordinator) Store() *modelstore.Store { return c.store }

// Version returns the latest published model version.
func (c *Coordinator) Version() int { return c.serving.Load().bcast.version }

// CheckIn registers or refreshes a device, negotiates its transport
// cohort, and reports its eligibility under the serving criteria. O(1):
// one shard lock, no coordinator lock.
func (c *Coordinator) CheckIn(info DeviceInfo) CheckInResult {
	now := time.Now()
	isNew, admitted := c.reg.TryCheckIn(info, now, c.cfg.MaxDevices)
	c.counters.Counter("checkin_total").Inc()
	if !admitted {
		c.counters.Counter("checkin_rejected_quota").Inc()
		return CheckInResult{New: true, OverQuota: true}
	}
	eligible := c.cfg.Criteria.Admit(info.session())
	if eligible {
		c.counters.Counter("checkin_eligible").Inc()
	}
	dec := c.negotiate(info, nil)
	if dec.Fallback {
		// The device advertised a capability list with nothing this
		// server can honor; it is served the f32 universal baseline.
		c.counters.Counter("transport_fallback_f32").Inc()
	}
	sv := c.serving.Load()
	return CheckInResult{
		New:      isNew,
		Eligible: eligible,
		Version:  sv.bcast.version,
		RoundID:  sv.round.ID,
		Cohort:   dec.Cohort,
		Policy:   dec.Policy,
	}
}

// BatchCheckInResult is the coordinator's reply to a batched check-in:
// aggregate counts instead of per-device echoes (devices learn their
// cohort and schemes on their first task request), so the response stays
// O(rejections) however large the batch is.
type BatchCheckInResult struct {
	// Accepted counts devices registered or refreshed; New counts the
	// subset inserted for the first time; Eligible counts accepted
	// devices admitted by the serving criteria.
	Accepted int
	New      int
	Eligible int
	// RejectedIDs lists new devices turned away by the MaxDevices quota
	// (in input order); they were not registered.
	RejectedIDs []int64
	Version     int
	RoundID     uint64
}

// CheckInBatch registers or refreshes a batch of devices in one call —
// the registration-storm fast path: the registry groups the batch by
// shard so lock traffic is per-stripe-per-batch, not per-device, and the
// serving counters are bumped once per batch. Quota semantics match
// CheckIn per device.
func (c *Coordinator) CheckInBatch(infos []DeviceInfo) BatchCheckInResult {
	now := time.Now()
	newCount, rejected := c.reg.CheckInBatch(infos, now, c.cfg.MaxDevices)
	sv := c.serving.Load()
	res := BatchCheckInResult{
		Accepted:    len(infos) - len(rejected),
		New:         newCount,
		RejectedIDs: rejected,
		Version:     sv.bcast.version,
		RoundID:     sv.round.ID,
	}
	var rejectedSet map[int64]struct{}
	if len(rejected) > 0 {
		rejectedSet = make(map[int64]struct{}, len(rejected))
		for _, id := range rejected {
			rejectedSet[id] = struct{}{}
		}
	}
	for i := range infos {
		if _, out := rejectedSet[infos[i].ID]; out {
			continue
		}
		if c.cfg.Criteria.Admit(infos[i].session()) {
			res.Eligible++
		}
	}
	c.counters.Counter("checkin_batch").Inc()
	c.counters.Counter("checkin_total").Add(int64(len(infos)))
	c.counters.Counter("checkin_eligible").Add(int64(res.Eligible))
	if len(rejected) > 0 {
		c.counters.Counter("checkin_rejected_quota").Add(int64(len(rejected)))
	}
	return res
}

// negotiate maps a device's reported state (plus an optional per-request
// capability override) to its transport decision. The scheduler's
// measured-bandwidth cohort map pins the cohort when the device has
// earned a measurement; otherwise the radio label classifies, exactly
// the pre-scheduler rule. Lock-free: one atomic fleet-view load.
func (c *Coordinator) negotiate(info DeviceInfo, acceptOverride []codec.Kind) transport.Decision {
	d := transport.Device{
		Platform: info.Platform,
		WiFi:     info.WiFi,
		Accept:   info.Accept,
		Cohort:   c.sched.Cohort(info.ID),
	}
	if acceptOverride != nil {
		d.Accept = acceptOverride
	}
	return c.negotiator.Negotiate(d)
}

// taskEstimate sizes the candidate task's wire cost for the deadline
// gate: the downlink blob under the cohort's broadcast scheme (the delta
// scheme when the device's base is still in the ring — what it would
// actually be served) plus the uplink update under the cohort's update
// scheme. cur is the plane version the request already loaded.
func (c *Coordinator) taskEstimate(dec transport.Decision, q TaskQuery, cur int) sched.TaskEstimate {
	down := dec.Policy.Task
	// The base version is client-controlled: only a base the serving
	// path could actually answer with a delta (1..current, within the
	// cohort's depth window) earns the cheap delta costing — a bogus
	// future base would otherwise let a gated straggler buy admission
	// with a ~100x underestimated download and then be served the full
	// blob anyway.
	if depth := c.cfg.Transport.DepthFor(dec.Cohort); depth > 0 {
		if q.BaseVersion > 0 && q.BaseVersion <= cur && cur-q.BaseVersion < depth {
			down = dec.Policy.Delta
		}
	}
	return sched.TaskEstimate{
		DownBytes: sched.WireSizeEstimate(down, c.dim),
		UpBytes:   sched.WireSizeEstimate(dec.Policy.Update, c.dim),
	}
}

// ObserveTelemetry folds one update-path serving observation (measured
// uplink transfer, reported download timing and training duration) into
// the device's telemetry EWMAs. O(1), one registry shard lock.
func (c *Coordinator) ObserveTelemetry(id int64, o TelemetryObservation) {
	c.reg.Observe(id, o, time.Now())
}

// Scheduler exposes the scheduling plane (diagnostics, tests, benches).
func (c *Coordinator) Scheduler() *sched.Scheduler { return c.sched }

// rebuildSched refreshes the scheduler's fleet view from a registry
// telemetry census: the measured-bandwidth cohort map, the over-commit
// scale, and the /v1/status histograms. O(fleet) — called from the
// watchdog every Sched.RebuildEvery, never from a serving path.
func (c *Coordinator) rebuildSched(now time.Time) {
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	c.rebuildSchedLocked(now)
}

// rebuildSchedLocked is the census walk body; callers hold rebuildMu
// (which owns the reused schedCensus buffer).
func (c *Coordinator) rebuildSchedLocked(now time.Time) {
	// Per-cohort wire costs: a lowbw device's typical task moves its
	// cohort's sparse encodings, so its straggler estimate must too —
	// matching what the per-request gate (taskEstimate) would charge it.
	ests := make(map[string]sched.TaskEstimate, 2)
	for _, cohort := range []string{transport.CohortDefault, transport.CohortLowBW} {
		p := c.cfg.Transport.PolicyFor(cohort)
		ests[cohort] = sched.TaskEstimate{
			DownBytes: sched.WireSizeEstimate(p.Task, c.dim),
			UpBytes:   sched.WireSizeEstimate(p.Update, c.dim),
		}
	}
	c.schedCensus = c.reg.AppendSchedSamples(c.schedCensus[:0], c.cfg.Criteria, now, sched.TelemetryTTL)
	c.sched.Rebuild(c.schedCensus, c.cfg.RoundDeadline, ests)
	c.counters.Counter("sched_rebuilds").Inc()
}

// spawnRebuildSched runs one census rebuild off the watchdog goroutine.
// Single-flight: if the previous walk is still running, this tick is
// skipped (sched_rebuild_skipped) — the watchdog's deadline enforcement
// must never wait on an O(fleet) scan, and queueing walks behind an
// overrun cadence would only dig the hole deeper.
func (c *Coordinator) spawnRebuildSched(now time.Time) {
	if !c.rebuildMu.TryLock() {
		c.counters.Counter("sched_rebuild_skipped").Inc()
		return
	}
	c.rebuildWG.Add(1)
	go func() {
		defer c.rebuildWG.Done()
		defer c.rebuildMu.Unlock()
		c.rebuildSchedLocked(now)
	}()
}

// Heartbeat refreshes liveness for a checked-in device.
func (c *Coordinator) Heartbeat(id int64) error {
	c.counters.Counter("heartbeat_total").Inc()
	if !c.reg.Heartbeat(id, time.Now()) {
		return ErrUnknownDevice
	}
	return nil
}

// RequestTask hands the device the current round's task with full
// broadcast semantics — the convenience form of RequestTaskWith(id,
// TaskQuery{Binary: true}) for embedders and tests.
func (c *Coordinator) RequestTask(deviceID int64) (Task, error) {
	return c.RequestTaskWith(deviceID, TaskQuery{Binary: true})
}

// RequestTaskWith hands the device the current round's task if the round
// has assignment budget and the device is live, idle, and admitted by
// the criteria, negotiating the wire schemes from the device's cohort
// and capability list. When the query carries a base version still in
// the version ring, the task ships a codec delta frame instead of the
// full vector. Returns ErrNoTask when the device should poll again
// later.
//
// The path is commit-free: it loads the serving pair once and touches
// only registry shard locks and the round's O(1) mutex, so a request
// issued mid-commit is answered immediately from the outgoing plane
// instead of stalling behind aggregation or a disk write.
func (c *Coordinator) RequestTaskWith(deviceID int64, q TaskQuery) (Task, error) {
	now := time.Now()
	sv := c.serving.Load()
	r, bs := sv.round, sv.bcast
	info, tel, ok := c.reg.Snapshot(deviceID)
	if !ok {
		// Identity errors stay stable regardless of round budget.
		return Task{}, ErrUnknownDevice
	}
	// Age the telemetry before the gate reads it: a device idle past the
	// TTL loses its earned sample counts, so a stale "too slow" (or "fast
	// enough") verdict degrades to the unmeasured optimistic default
	// instead of pinning the device on week-old EWMAs.
	tel = tel.Decayed(now, sched.TelemetryTTL)
	if !r.assignable(now) {
		c.counters.Counter("task_denied_round").Inc()
		return Task{}, ErrNoTask
	}
	// Negotiation is pure, so it runs before the assignment is taken: the
	// deadline gate needs the cohort's wire schemes to cost the task.
	dec := c.negotiate(info, q.Accept)
	if c.cfg.Mode == ModeSync && !c.sched.Admit(tel, r.Deadline.Sub(now), c.taskEstimate(dec, q, bs.version)) {
		// The device is measured too slow to finish inside this round's
		// remaining window: assigning it anyway would burn over-commit
		// budget on a straggler. Async rounds skip the gate — FedBuff
		// welcomes slow devices' carry-over updates by design. Once the
		// consecutive-denial streak crosses the probe threshold the device is
		// admitted anyway as a re-measurement probe (and keeps being
		// admitted until fresh telemetry resets the streak — a probe
		// that loses the assignment race below must retry, not wait out
		// another full streak): telemetry refreshes only on the update
		// path a gated device can't reach, so without probes a device
		// whose link improved would stay excluded on stale EWMAs forever.
		if !c.sched.ProbeDue(c.reg.NoteGateDenied(deviceID)) {
			c.counters.Counter("task_denied_deadline").Inc()
			return Task{}, ErrNoTask
		}
		c.counters.Counter("task_probe_admitted").Inc()
	}
	if !c.reg.Assign(deviceID, r.ID, c.cfg.Criteria, now) {
		c.counters.Counter("task_denied_device").Inc()
		return Task{}, ErrNoTask
	}
	if !r.tryAssign(deviceID, now) {
		// The budget filled (or the round went terminal) between the
		// pre-check and here: idle the device again and have it re-poll.
		c.reg.Release(deviceID)
		c.counters.Counter("task_denied_round").Inc()
		return Task{}, ErrNoTask
	}
	c.counters.Counter("task_assigned").Inc()
	c.counters.Counter("task_cohort_" + dec.Cohort).Inc()
	if dec.Fallback {
		// Counted here as well as at check-in: a per-request capability
		// echo can force the fallback on a device whose check-in looked
		// fine, and operators need to see that degradation.
		c.counters.Counter("transport_fallback_f32").Inc()
	}
	t := Task{
		RoundID:      r.ID,
		BaseVersion:  bs.version, // == r.BaseVersion: the pair swaps together
		ModelKind:    c.cfg.ModelKind,
		Dim:          len(bs.published),
		TaskScheme:   dec.Policy.Task,
		Cohort:       dec.Cohort,
		UpdateScheme: dec.Policy.Update,
		LocalSteps:   c.cfg.LocalSteps,
		Deadline:     r.Deadline,
		Params:       bs.published,
		plane:        bs,
	}
	if !q.Binary {
		// JSON clients take Params through the plane's JSON artifact;
		// don't pay a blob encode they will never read.
		return t, nil
	}
	// Delta admissibility is the requesting cohort's depth window, not
	// the ring's: the ring is sized to the deepest cohort, so a shallow
	// cohort's device whose base is still physically in the ring but past
	// its own window takes the full broadcast like any aged base.
	depth := c.cfg.Transport.DepthFor(t.Cohort)
	if q.BaseVersion > 0 && q.BaseVersion <= bs.version && depth > 0 &&
		bs.version-q.BaseVersion < depth {
		// An up-to-date device gets a one-entry sparse "no change" frame
		// (~30 bytes) — but only when it can decode topk; a constrained
		// client keeps its negotiated delta scheme, never one outside
		// its advertised list.
		noChange := dec.Policy.Delta
		if acceptsKind(q.Accept, info.Accept, codec.KindTopK) {
			noChange = codec.TopK(1)
		}
		if blob, cached, ok := bs.deltaBlob(q.BaseVersion, dec.Policy.Delta, noChange); ok {
			if cached {
				c.counters.Counter("delta_cache_hits").Inc()
			} else {
				c.counters.Counter("delta_cache_misses").Inc()
			}
			t.EncodedParams = blob
			t.TaskScheme = dec.Policy.Delta
			t.DeltaBase = q.BaseVersion
			return t, nil
		}
		// The base aged out of the ring (or negotiation disabled
		// deltas): fall back to the full broadcast.
		c.counters.Counter("delta_base_aged").Inc()
	} else if q.BaseVersion > 0 && q.BaseVersion <= bs.version {
		// A real base past the cohort's window (or deltas disabled):
		// the same aged-base signal, rejected before the ring lookup.
		c.counters.Counter("delta_base_aged").Inc()
	}
	blob, err := bs.fullBlob(dec.Policy.Task)
	if err != nil {
		// Encoding the broadcast failed (cannot happen for validated
		// schemes and in-range models, but the task would be useless):
		// idle the device again; the round's overcommit budget absorbs
		// the orphaned assignment like any dropped task.
		c.reg.Release(deviceID)
		return Task{}, err
	}
	t.EncodedParams = blob
	return t, nil
}

// acceptsKind reports whether the effective capability list — the
// per-request override when present, else the check-in advertisement
// (nil = legacy client, decodes everything) — includes k.
func acceptsKind(override, advertised []codec.Kind, k codec.Kind) bool {
	list := override
	if list == nil {
		list = advertised
	}
	if list == nil {
		return true
	}
	for _, a := range list {
		if a == k {
			return true
		}
	}
	return false
}

// SubmitUpdate validates a device update and enqueues it for the ingest
// worker. A full queue returns ErrBusy (the load-shedding contract: devices
// retry with backoff rather than stalling the server). For payload-backed
// submissions the coordinator owns the pooled buffer from here on,
// whatever the outcome.
func (c *Coordinator) SubmitUpdate(sub Submission) error {
	if c.closed.Load() {
		sub.release()
		return ErrClosed
	}
	if dim := submissionDim(sub); dim != c.dim {
		sub.release()
		c.counters.Counter("update_rejected_dim").Inc()
		return fmt.Errorf("coord: update from device %d has %d params, want %d", sub.DeviceID, dim, c.dim)
	}
	// One NaN/Inf element would propagate through aggregation and
	// permanently poison the published model; the binary wire format can
	// carry such bit patterns (JSON can't), so every ingress is screened
	// here, the single choke point for all transports. Wire-form
	// submissions are screened on the payload bytes themselves (for q8
	// that is one float32 scale per 256 elements — no decode, no
	// allocation); overflow *during* aggregation is caught by the screen
	// fused into the commit pass.
	if !finite(sub.Weight) || !submissionFinite(sub) {
		sub.release()
		c.counters.Counter("update_rejected_nonfinite").Inc()
		return fmt.Errorf("coord: update from device %d contains non-finite values", sub.DeviceID)
	}
	select {
	case c.ingest <- sub:
		c.counters.Counter("update_enqueued").Inc()
		if sub.Payload != nil {
			c.counters.Counter("update_lazy_payload").Inc()
		}
		return nil
	default:
		sub.release()
		c.counters.Counter("update_rejected_busy").Inc()
		return ErrBusy
	}
}

// submissionDim is the update's element count, whichever form it carries.
func submissionDim(sub Submission) int {
	if sub.Delta != nil {
		return len(sub.Delta)
	}
	if sub.Payload != nil {
		return sub.Payload.Dim()
	}
	return 0
}

// submissionFinite screens the update for NaN/±Inf without materializing
// wire-form payloads.
func submissionFinite(sub Submission) bool {
	if sub.Delta != nil {
		return allFinite(sub.Delta)
	}
	return sub.Payload.AllFinite()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func allFinite(v tensor.Vector) bool {
	for _, x := range v {
		if !finite(x) {
			return false
		}
	}
	return true
}

// ingestLoop is the single consumer of the update queue: it owns round
// mutation, aggregation, and publishing, so those never race.
func (c *Coordinator) ingestLoop() {
	defer c.loopWG.Done()
	for {
		select {
		case <-c.done:
			return
		case sub := <-c.ingest:
			c.apply(sub)
		}
	}
}

// watchdog enforces round deadlines even when no updates arrive, and
// periodically garbage-collects departed devices so a long-running server's
// registry doesn't grow without bound.
func (c *Coordinator) watchdog() {
	defer c.loopWG.Done()
	period := c.cfg.RoundDeadline / 10
	if period > 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	// The scheduler rebuild rides this ticker, so a rebuild cadence
	// faster than the deadline-driven tick must pull the tick down with
	// it — otherwise a sub-tick Sched.RebuildEvery would be silently
	// quantized to the tick period.
	if r := c.cfg.Sched.RebuildEvery; r < period {
		period = r
	}
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	lastSweep := time.Now()
	lastRebuild := lastSweep
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.checkDeadline()
			now := time.Now()
			if now.Sub(lastRebuild) >= c.cfg.Sched.RebuildEvery {
				lastRebuild = now
				c.spawnRebuildSched(now)
			}
			if now.Sub(lastSweep) >= c.cfg.DeviceTTL {
				lastSweep = now
				if n := c.reg.Sweep(2*c.cfg.DeviceTTL, now); n > 0 {
					c.counters.Counter("devices_swept").Add(int64(n))
				}
			}
		}
	}
}

// persistBackoff schedules the write-behind worker's retries: a failed
// flush (full disk, transient I/O error) is retried with exponential
// backoff instead of dropped — losing a snapshot's disk copy silently
// would defeat the write-behind journal's whole point. The schedule is
// short and bounded so a genuinely dead disk cannot wedge Close.
var persistBackoff = []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 125 * time.Millisecond}

// persistLoop is the write-behind worker: it flushes committed versions
// to the store's backing directory and prunes aged ones, off the commit
// pipeline's critical path. Barrier requests fsync the snapshot;
// failures retry with backoff (persist_retry) before surfacing as
// persist_error. It drains its queue on shutdown.
func (c *Coordinator) persistLoop() {
	defer c.persistWG.Done()
	for req := range c.persist {
		var err error
		for attempt := 0; ; attempt++ {
			if err = c.store.Persist(c.cfg.ModelName, req.version, req.barrier); err == nil {
				break
			}
			if attempt >= len(persistBackoff) {
				c.counters.Counter("persist_error").Inc()
				break
			}
			c.counters.Counter("persist_retry").Inc()
			time.Sleep(persistBackoff[attempt])
		}
		if err == nil && req.barrier {
			c.counters.Counter("persist_barrier").Inc()
		}
		// A removal failure leaves a stale file behind, never a missing
		// snapshot; the next commit's pass retries it.
		pruned, _ := c.store.Retain(c.cfg.ModelName, req.version, c.cfg.KeepVersions)
		c.counters.Counter("versions_pruned").Add(int64(pruned))
		c.counters.Counter("publish_pending").Add(-1)
	}
}

// apply folds one submission into the current round and triggers the
// commit pipeline when the round becomes ready.
func (c *Coordinator) apply(sub Submission) {
	now := time.Now()
	// Each handed-out task is good for exactly one submission: consuming
	// the assignment here rejects duplicates (client retries after a
	// timed-out response) and unsolicited updates, either of which would
	// otherwise let one device over-weight the aggregate.
	assignedTo, held := c.reg.ConsumeAssignment(sub.DeviceID)
	if !held {
		sub.release()
		c.counters.Counter("update_rejected_unassigned").Inc()
		return
	}
	weight := sub.Weight
	if weight <= 0 {
		// Fall back to the example count the device reported at
		// check-in (the aggregator treats a still-missing weight as 1).
		if info, ok := c.reg.Get(sub.DeviceID); ok {
			weight = info.Weight
		}
	}
	// Fold into the current round, retrying once if the round refuses it
	// (overdue, or swapped by a watchdog-triggered commit between the
	// load and the record): in async mode the update is a legitimate
	// carry-over for the successor. Staleness is recomputed per attempt:
	// landing after a concurrent commit means one more generation has
	// passed, and both the MaxStaleness bound and FedBuff's discount must
	// see it.
	for attempt := 0; ; attempt++ {
		sv := c.serving.Load()
		r := sv.round
		staleness := sv.bcast.version - sub.BaseVersion
		if staleness < 0 {
			sub.release()
			c.counters.Counter("update_rejected_future").Inc()
			return
		}
		if c.cfg.Mode == ModeAsync && c.cfg.MaxStaleness > 0 && staleness > c.cfg.MaxStaleness {
			sub.release()
			c.counters.Counter("update_rejected_stale").Inc()
			return
		}
		u := aggregator.Update{
			ClientID:  sub.DeviceID,
			Delta:     sub.Delta,
			Payload:   sub.Payload,
			Weight:    weight,
			Staleness: staleness,
		}
		if c.cfg.Mode == ModeSync {
			// Sync rounds only accept their own cohort's updates.
			if assignedTo != r.ID || sub.RoundID != r.ID || sub.BaseVersion != r.BaseVersion {
				sub.release()
				c.counters.Counter("update_rejected_late").Inc()
				return
			}
		}
		if err := r.recordUpdate(u, now); err != nil {
			if attempt == 0 {
				// The round is overdue, mid-pipeline (aggregating) or
				// already terminal. Under mu an overdue round is closed
				// now — committed at quorum, abandoned below it — and
				// an in-flight commit is waited out; after it the
				// serving pointer names the successor round and the
				// carry-over can land there.
				c.mu.Lock()
				c.abandonLocked(r, now)
				c.mu.Unlock()
				continue
			}
			sub.release()
			c.counters.Counter("update_rejected_late").Inc()
			return
		}
		c.counters.Counter("update_accepted").Inc()
		if r.ready(now) {
			c.mu.Lock()
			c.commitLocked(r, now)
			c.mu.Unlock()
		}
		return
	}
}

// checkDeadline closes the serving round once its deadline passes. The
// fast path is a single atomic load: an idle server's watchdog tick takes
// no locks at all.
func (c *Coordinator) checkDeadline() {
	now := time.Now()
	r := c.serving.Load().round
	if now.Before(r.Deadline) {
		// Mid-collection and far from the deadline; target-count commits
		// are the ingest worker's job, so there is nothing to do here.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.abandonLocked(r, now)
}

// commitLocked runs the staged commit pipeline for round r. Callers hold
// mu; r must have been loaded from the serving pointer.
//
// Stage 1 aggregates the round's updates with the sharded parallel
// reducer into a fresh version buffer holding a copy of the published
// params, applies DP and seals it. Stage 2 builds the successor broadcast
// plane off to the side: the buffer's params and raw64 blob and a ring
// append (no encoding — the plane fills its artifact cache on first
// request). Stage 3 inserts the buffer into the store (in memory), swaps
// the serving pointer, and queues the disk write to the write-behind
// worker — so the only I/O a commit waits for is its own arithmetic.
func (c *Coordinator) commitLocked(r *Round, now time.Time) {
	sv := c.serving.Load()
	if sv.round != r {
		// A concurrent trigger (ingest vs watchdog) already committed or
		// abandoned this round.
		return
	}
	bs := sv.bcast
	updates, ok := r.beginAggregate()
	if !ok {
		c.counters.Counter("round_fsm_error").Inc()
		return
	}
	// Stage 0: the pre-reduce norm screen. Outlier updates (boosted
	// poison, norm overflow, NaN norms) never reach the reducer — or, in
	// hierarchical mode, the shard partial; the screen is a per-update
	// predicate, so per-cohort application stays sound where the robust
	// reducers would not. Rejected updates stay in the round buffer (it
	// still owns their payload releases at termination) but forfeit their
	// devices' telemetry trust. A round the screen empties aborts.
	if c.screen.Enabled() {
		kept, rejected := c.screen.Apply(updates)
		if len(rejected) > 0 {
			c.counters.Counter("updates_screened_norm").Add(int64(len(rejected)))
			r.noteScreened(len(rejected))
			for _, u := range rejected {
				c.reg.NoteScreened(u.ClientID)
			}
			if len(kept) == 0 {
				c.abortCommitLocked(r, bs, "round_aggregate_robust_error", now)
				return
			}
			updates = kept
		}
	}
	if c.cfg.Exchange != nil {
		// Hierarchical mode: reduce the round to a weighted partial and
		// ship it to the tier leader instead of committing locally.
		c.partialLocked(r, bs, updates, now)
		return
	}
	// Stage 1: parallel tree-reduction aggregation, with the non-finite
	// screen fused into each worker's range (the ingress screen in
	// SubmitUpdate only sees individual updates; finite deltas can still
	// sum past MaxFloat64 during aggregation, and a single Inf here
	// would be republished forever). A failure — a non-finite aggregate,
	// or dimension drift that dooms the cohort, not the server — drops
	// the round and the unpublished buffer, and serving goes on.
	buf := codec.NewVersionBuf(c.ckptHdr, c.dim)
	params := buf.Params()
	copy(params, bs.published)
	if err := c.strategy.Aggregate(params, updates); err != nil {
		counter := "round_aggregate_error"
		if errors.Is(err, aggregator.ErrNonFinite) {
			counter = "round_aggregate_nonfinite"
		}
		c.abortCommitLocked(r, bs, counter, now)
		return
	}
	// Stage 1b: central DP — clip the aggregate round delta and add
	// seeded Gaussian noise (screen → reduce → clip → noise). Clip keeps
	// the delta finite even past float overflow (an infinite norm scales
	// it to zero) and the noise is finite by construction, so nothing
	// here can reintroduce what the fused non-finite screen just ruled
	// out. The noise is the held draw, begun when r opened on plane bs;
	// the commit takes it, so a failed publish draws the version again.
	if c.dp != nil {
		dp := c.noise
		c.noise = nil
		eps, noised := dp.Apply(params, bs.published, len(updates))
		dp.Release()
		if noised {
			c.counters.Counter("dp_rounds").Inc()
			r.noteEpsilon(eps)
		}
	}
	buf.Seal()
	if c.publishLocked(r, bs, bs.version+1, buf, now) {
		c.counters.Counter("updates_aggregated").Add(int64(len(updates)))
	}
}

// publishLocked runs the commit pipeline's publish stages for the sealed
// buffer of version v (stage 2: successor broadcast plane; stage 3:
// store insert, serving swap, write-behind persist). Both the local
// aggregation path and the hierarchical install path end here: the
// plane serves the buffer's params and raw64 blob, and the store keeps
// its bytes as the checkpoint. A failure is a publish failure: devices
// could not fetch the version we would be announcing, so the buffer is
// dropped and the round with it. Callers hold mu.
func (c *Coordinator) publishLocked(r *Round, bs *broadcastState, v int, buf codec.VersionBuf, now time.Time) bool {
	next := newBroadcastState(v, buf.Params(), buf.Bytes()[len(c.ckptHdr):], bs.ring, c.cfg.Transport.RingDepth())
	// The checkpoint lands in the store's memory before the serving swap
	// (tasks must never reference a version the store cannot answer
	// for); the disk write rides the write-behind queue.
	if err := c.store.PutAt(c.cfg.ModelName, v, buf.Bytes()); err != nil {
		c.abortCommitLocked(r, bs, "round_publish_error", now)
		return false
	}
	if err := r.conclude(PhaseCommitted); err != nil {
		c.counters.Counter("round_fsm_error").Inc()
	}
	c.counters.Counter("rounds_committed").Inc()
	c.finishLocked(r, v, next, now)
	c.counters.Counter("publish_pending").Inc()
	c.persist <- persistReq{version: v, barrier: v%persistBarrier == 0}
	return true
}

// abortCommitLocked is the commit pipeline's failure exit: it counts the
// failure, drops the round, and opens its successor on the unchanged
// broadcast plane. Callers hold mu.
func (c *Coordinator) abortCommitLocked(r *Round, bs *broadcastState, counter string, now time.Time) {
	c.counters.Counter(counter).Inc()
	_ = r.conclude(PhaseAbandoned)
	c.finishLocked(r, 0, bs, now)
}

// abandonLocked closes round r if it is still the serving round and the
// rule says so at now: a starved round (overdue below quorum) is dropped
// and a fresh one opens on the same broadcast plane; a ready one commits
// instead of dropping its accepted updates. The starvation verdict and the
// terminal flip are one atomic step. Callers hold mu.
func (c *Coordinator) abandonLocked(r *Round, now time.Time) {
	sv := c.serving.Load()
	if sv.round != r {
		return
	}
	if !r.expireIfStarved(now) {
		if r.ready(now) {
			c.commitLocked(r, now)
		}
		return
	}
	c.counters.Counter("rounds_abandoned").Inc()
	c.finishLocked(r, 0, sv.bcast, now)
}

// finishLocked records the terminal round and swaps in its successor on
// broadcast plane bs (the fresh plane after a commit, the unchanged one
// after an abandonment). Callers hold mu.
func (c *Coordinator) finishLocked(r *Round, newVersion int, bs *broadcastState, now time.Time) {
	// The round is terminal: its buffered updates have been aggregated
	// (or dropped), so the pooled wire payloads they carried go back to
	// the codec pool here — the single release point for accepted
	// updates, matching the single ingest worker that buffered them.
	r.releasePayloads()
	if c.cfg.Mode == ModeSync {
		// A terminal sync round voids its outstanding tasks — idle
		// exactly the devices it assigned (not an O(fleet) scan). In
		// async mode assignments survive the commit: carry-over
		// updates are still welcome, and the assignment is consumed
		// on submission (or overwritten when the device asks for new
		// work).
		for _, id := range r.takeAssigned() {
			c.reg.ReleaseIf(id, r.ID)
		}
	}
	summary := r.summary(newVersion, now)
	c.historyMu.Lock()
	c.history = append(c.history, summary)
	if len(c.history) > recentRounds {
		c.history = c.history[len(c.history)-recentRounds:]
	}
	c.historyMu.Unlock()
	next := c.newRound(r.ID+1, bs, now)
	c.serving.Store(&serving{round: next, bcast: bs})
}

// Status reports the coordinator's full serving state (O(fleet): it scans
// the registry, so it belongs on dashboards, not hot paths). Like the
// task path it shares no mutex with the commit pipeline.
func (c *Coordinator) Status() StatusReport {
	now := time.Now()
	census := c.reg.Census(c.cfg.Criteria, now)
	sv := c.serving.Load()
	rs := sv.round.status()
	c.historyMu.Lock()
	recent := append([]RoundSummary(nil), c.history...)
	c.historyMu.Unlock()
	sr := c.sched.Report()
	// Stamp the registry half of the footprint section into the report
	// copy: the scheduler half was filled at the last rebuild; the
	// registry's is an O(1) layout estimate computed fresh here.
	sr.Footprint.Devices = census.Known
	sr.Footprint.RegistryBytes = c.reg.FootprintBytes()
	if census.Known > 0 {
		sr.Footprint.RegistryBytesPerDev =
			float64(sr.Footprint.RegistryBytes) / float64(census.Known)
	}
	st := StatusReport{
		Mode:        c.cfg.Mode,
		ModelKind:   c.cfg.ModelKind,
		ModelName:   c.cfg.ModelName,
		Version:     sv.bcast.version,
		Round:       rs,
		Devices:     census,
		Scheduler:   sr,
		Counters:    c.counters.Snapshot(),
		Recent:      recent,
		Aggregation: c.strategy.Name(),
		// The published snapshot is immutable once swapped in, so the
		// norm scan is safe without mu (O(dim), but Status is a
		// dashboard path).
		ModelNorm: sv.bcast.published.Norm2(),
	}
	if c.dp != nil {
		st.Privacy = c.dp.Report()
	}
	return st
}
