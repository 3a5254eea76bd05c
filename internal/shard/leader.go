package shard

import (
	"fmt"
	"sync"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/tensor"
)

// LeaderConfig parameterizes the tier's round leader.
type LeaderConfig struct {
	// Shards is the tier width N: how many replicas the leader expects
	// to hear from. Membership is healthy only when every one of them
	// has pinged within Grace. It is also the cross-shard fold trigger:
	// the leader folds once it has buffered N partials, one fold per
	// tier-wide round generation.
	Shards int
	// Grace is the heartbeat freshness window; a shard whose last ping
	// is older counts as lost and halts the tier (default 3s).
	Grace time.Duration
	// ServerLR and StalenessAlpha parameterize the cross-shard FedBuff
	// fold: partials from shards that trained against an older global
	// version are staleness-discounted, exactly like late async device
	// updates inside one coordinator. Defaults 1 and 0.
	ServerLR       float64
	StalenessAlpha float64
	// Params builds a job's initial global parameter vector the first
	// time the leader sees the job (version 1). It must derive the
	// vector from the same spec the shards booted from — model kind and
	// seed — or the tier's installs would not be bit-compatible with
	// the shards' check-in broadcasts. Required.
	Params func(job string) (tensor.Vector, error)
}

func (c LeaderConfig) withDefaults() (LeaderConfig, error) {
	if c.Shards <= 0 {
		return c, fmt.Errorf("shard: leader needs a positive shard count, got %d", c.Shards)
	}
	if c.Grace <= 0 {
		c.Grace = 3 * time.Second
	}
	if c.ServerLR <= 0 {
		c.ServerLR = 1
	}
	if c.StalenessAlpha < 0 {
		return c, fmt.Errorf("shard: negative staleness alpha %v", c.StalenessAlpha)
	}
	if c.Params == nil {
		return c, fmt.Errorf("shard: leader needs a Params factory")
	}
	return c, nil
}

// leaderCounters are pre-registered so the tier status page is fully
// shaped before the first partial arrives.
var leaderCounters = []string{
	"tier_partials_received", "tier_partial_wire_bytes",
	"tier_updates_represented", "tier_folds", "tier_fold_errors",
	"tier_halted_submissions", "tier_bad_partials", "tier_pings",
	"tier_halts",
}

// jobGlobal is one job's tier-level model state: the authoritative
// global version, its parameters, the pre-encoded raw64 install blob
// every behind shard receives, and the partial buffer feeding the next
// cross-shard fold.
type jobGlobal struct {
	version int
	params  tensor.Vector
	blob    []byte // raw64 encoding of params at version
	buffer  []aggregator.Update
}

// Leader is the tier's round leader: it tracks shard membership through
// heartbeats, enforces halt-until-healthy on the exchange, and folds
// shard partials into each job's global model through the same
// parallel range kernels a single coordinator commits with. It
// implements coord.PartialExchange, so an in-process tier (tests, the
// sharded benchmark) wires coordinators straight to it; the gateway
// exposes the same two verbs over HTTP for the multi-process tier.
type Leader struct {
	cfg      LeaderConfig
	strategy aggregator.Strategy
	counters *metrics.CounterSet

	mu       sync.Mutex
	lastPing []time.Time // per shard; zero = never heard from
	healthy  bool        // memo of last healthyLocked verdict, for halt edge counting
	jobs     map[string]*jobGlobal
}

// NewLeader builds a tier leader. The tier starts unhealthy — no shard
// has pinged yet — so partials park until the full membership has
// reported in, which is exactly the paper's cold-start rule: training
// does not move until the control plane sees a complete tier.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Leader{
		cfg: cfg,
		strategy: aggregator.Parallel{
			Inner:  aggregator.FedBuff{ServerLR: cfg.ServerLR, Alpha: cfg.StalenessAlpha},
			Screen: true,
		},
		counters: metrics.NewCounterSet(),
		lastPing: make([]time.Time, cfg.Shards),
		jobs:     make(map[string]*jobGlobal),
	}
	for _, name := range leaderCounters {
		l.counters.Counter(name)
	}
	return l, nil
}

// Ping records a shard heartbeat. Implements the Pinger side of the
// exchange; shard ids outside the tier are a configuration error.
func (l *Leader) Ping(shardID int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pingLocked(shardID, time.Now())
}

func (l *Leader) pingLocked(shardID int, now time.Time) error {
	if shardID < 0 || shardID >= l.cfg.Shards {
		return fmt.Errorf("shard: ping from shard %d outside tier of %d", shardID, l.cfg.Shards)
	}
	l.lastPing[shardID] = now
	l.counters.Counter("tier_pings").Inc()
	return nil
}

// Healthy reports whether every shard has pinged within the grace
// window.
func (l *Leader) Healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.healthyLocked(time.Now())
}

func (l *Leader) healthyLocked(now time.Time) bool {
	ok := true
	for _, t := range l.lastPing {
		if t.IsZero() || now.Sub(t) > l.cfg.Grace {
			ok = false
			break
		}
	}
	if l.healthy && !ok {
		// Healthy→halted edge: one counted halt per membership loss,
		// not one per rejected submission.
		l.counters.Counter("tier_halts").Inc()
	}
	l.healthy = ok
	return ok
}

// EnsureJob initializes a job's tier global eagerly (version 1 from the
// Params factory). The gateway calls it at boot for its configured
// jobs so the status rollup reports a live version before the first
// partial; SubmitPartial initializes lazily either way.
func (l *Leader) EnsureJob(job string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.jobLocked(job)
	return err
}

func (l *Leader) jobLocked(job string) (*jobGlobal, error) {
	if jg, ok := l.jobs[job]; ok {
		return jg, nil
	}
	params, err := l.cfg.Params(job)
	if err != nil {
		return nil, fmt.Errorf("shard: init job %q: %w", job, err)
	}
	blob, err := codec.Encode(params, codec.RawF64)
	if err != nil {
		return nil, fmt.Errorf("shard: encode job %q globals: %w", job, err)
	}
	jg := &jobGlobal{version: 1, params: params, blob: blob}
	l.jobs[job] = jg
	return jg, nil
}

// Version reports a job's current tier global version (0 if the job
// has not been initialized yet).
func (l *Leader) Version(job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if jg, ok := l.jobs[job]; ok {
		return jg.version
	}
	return 0
}

// Global returns a job's current tier version and a copy of its global
// parameter vector (nil params and version 0 for an uninitialized job).
func (l *Leader) Global(job string) (int, tensor.Vector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if jg, ok := l.jobs[job]; ok {
		return jg.version, jg.params.Clone()
	}
	return 0, nil
}

// Counters exposes the leader's counter set (the gateway folds it into
// the status rollup).
func (l *Leader) Counters() *metrics.CounterSet { return l.counters }

// SubmitPartial implements coord.PartialExchange: the leader side of
// the hierarchical commit. A partial is proof of life (it refreshes the
// submitter's heartbeat), then the halt gate runs: while any shard is
// lost the partial is rejected with coord.ErrTierHalted and the shard's
// parked round retries — no global progress happens on a partial view
// of the fleet. Healthy submissions append to the job's fold buffer as
// zero-copy payload views over the wire blob; the Buffer'th partial
// triggers the cross-shard fold and advances the global version. The
// response always carries the job's current version, with the full
// raw64 global blob exactly when the submitting shard's base is behind.
func (l *Leader) SubmitPartial(pc coord.PartialCommit) (coord.GlobalInstall, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if err := l.pingLocked(pc.ShardID, now); err != nil {
		l.counters.Counter("tier_bad_partials").Inc()
		return coord.GlobalInstall{}, err
	}
	if !l.healthyLocked(now) {
		l.counters.Counter("tier_halted_submissions").Inc()
		return coord.GlobalInstall{}, coord.ErrTierHalted
	}
	jg, err := l.jobLocked(pc.Job)
	if err != nil {
		l.counters.Counter("tier_bad_partials").Inc()
		return coord.GlobalInstall{}, err
	}
	// The partial stays in wire form: ParsePayload is a validated view
	// over the blob bytes, and the fold's range kernels read straight
	// out of it — the zero-copy lifetime of PR 7 extended across the
	// shard boundary.
	payload, err := codec.ParsePayload(pc.Blob)
	if err == nil && payload.Dim() != len(jg.params) {
		err = fmt.Errorf("shard: partial for job %q carries %d params, want %d", pc.Job, payload.Dim(), len(jg.params))
	}
	if err == nil && pc.BaseVersion > jg.version {
		err = fmt.Errorf("shard: partial base v%d is ahead of tier v%d (split-brain leader?)", pc.BaseVersion, jg.version)
	}
	if err != nil {
		l.counters.Counter("tier_bad_partials").Inc()
		return coord.GlobalInstall{}, err
	}
	jg.buffer = append(jg.buffer, aggregator.Update{
		ClientID:  int64(pc.ShardID),
		Payload:   payload,
		Weight:    pc.Weight,
		Staleness: jg.version - pc.BaseVersion,
	})
	l.counters.Counter("tier_partials_received").Inc()
	l.counters.Counter("tier_partial_wire_bytes").Add(int64(len(pc.Blob)))
	l.counters.Counter("tier_updates_represented").Add(int64(pc.Updates))
	if len(jg.buffer) >= l.cfg.Shards {
		l.foldLocked(pc.Job, jg)
	}
	inst := coord.GlobalInstall{Version: jg.version}
	if pc.BaseVersion < jg.version {
		inst.Blob = jg.blob
	}
	return inst, nil
}

// foldLocked advances one job's global model by folding the buffered
// shard partials through the parallel FedBuff kernels: a data-weighted,
// staleness-discounted mean of the partials, stepped by ServerLR —
// FedAvg across shards when everything is fresh. A failed fold (a
// non-finite partial slipped through a shard's screen, or a poisoned
// weight) rolls the params back and drops the buffer: the tier keeps
// its last good version and the shards' next rounds refill the buffer.
// The rollback source is jg.blob, which encodes the last good params
// bit-exactly, so no fold pays for a copy made just in case.
func (l *Leader) foldLocked(job string, jg *jobGlobal) {
	err := l.strategy.Aggregate(jg.params, jg.buffer)
	if err == nil {
		var blob []byte
		if blob, err = codec.Encode(jg.params, codec.RawF64); err == nil {
			jg.version++
			jg.blob = blob
			l.counters.Counter("tier_folds").Inc()
		}
	}
	if err != nil {
		last, perr := codec.ParsePayload(jg.blob)
		if perr != nil {
			panic(fmt.Sprintf("shard: job %q install blob no longer parses: %v", job, perr))
		}
		last.CopyRange(jg.params, 0, len(jg.params))
		l.counters.Counter("tier_fold_errors").Inc()
	}
	for i := range jg.buffer {
		jg.buffer[i].Payload.Release()
	}
	jg.buffer = jg.buffer[:0]
}

// TierJob is one job's row in the tier status report.
type TierJob struct {
	Version  int `json:"version"`
	Buffered int `json:"buffered_partials"`
}

// TierStatus is the leader's half of the gateway status rollup: shard
// membership, the halt verdict, per-job global versions, and the
// exchange counters.
type TierStatus struct {
	Shards  int  `json:"shards"`
	Healthy bool `json:"healthy"`
	// LastPingMS is each shard's heartbeat age in milliseconds
	// (negative = never heard from).
	LastPingMS []int64            `json:"last_ping_ms"`
	Jobs       map[string]TierJob `json:"jobs"`
	Counters   map[string]int64   `json:"counters"`
}

// Status snapshots the tier for the gateway's /v1/status rollup.
func (l *Leader) Status() TierStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	st := TierStatus{
		Shards:     l.cfg.Shards,
		Healthy:    l.healthyLocked(now),
		LastPingMS: make([]int64, l.cfg.Shards),
		Jobs:       make(map[string]TierJob, len(l.jobs)),
		Counters:   l.counters.Snapshot(),
	}
	for i, t := range l.lastPing {
		if t.IsZero() {
			st.LastPingMS[i] = -1
		} else {
			st.LastPingMS[i] = now.Sub(t).Milliseconds()
		}
	}
	for name, jg := range l.jobs {
		st.Jobs[name] = TierJob{Version: jg.version, Buffered: len(jg.buffer)}
	}
	return st
}
