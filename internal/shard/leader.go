package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/tenant"
	"flint/internal/tensor"
)

// LeaderConfig parameterizes the tier's round leader.
type LeaderConfig struct {
	// Shards is the tier width N: how many replicas the leader expects
	// to hear from. Membership is healthy only when every one of them
	// has pinged within Grace. It is also the width of a generation:
	// each job holds one partial slot per shard, and the leader folds
	// when every slot is full.
	Shards int
	// Grace is the heartbeat freshness window; a shard whose last ping
	// is older counts as lost and halts the tier (default 3s).
	Grace time.Duration
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
// global version, its sealed version buffer — the parameters and, in the
// same allocation, the raw64 install blob every shard receives — and the
// generation being filled: a slot per shard, the round each shard last
// sent, and a channel the fold closes.
type jobGlobal struct {
	version int
	buf     codec.VersionBuf
	slots   []aggregator.Update
	rounds  []uint64
	folded  chan struct{}
}

// errRetry asks a shard to send its partial again; it is not a halt.
var errRetry = errors.New("shard: generation still filling, send the partial again")

// tierFold is foldLocked's reduce, a constant rather than a setting.
var tierFold = aggregator.Parallel{Inner: aggregator.FedBuff{ServerLR: 1}, Screen: true}

// Leader is the tier's round leader: it tracks shard membership through
// heartbeats, enforces halt-until-healthy on the exchange, and folds
// shard partials into each job's global model — a data-weighted mean,
// with no staleness discount — through the same parallel range kernels
// a single coordinator commits with. It implements coord.PartialExchange
// for an in-process tier; the gateway serves the same two verbs over
// HTTP for the multi-process tier.
type Leader struct {
	cfg      LeaderConfig
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
		cfg:      cfg,
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
	buf := codec.NewVersionBuf(nil, len(params))
	copy(buf.Params(), params)
	buf.Seal()
	jg := &jobGlobal{version: 1, buf: buf, slots: make([]aggregator.Update, l.cfg.Shards),
		rounds: make([]uint64, l.cfg.Shards), folded: make(chan struct{})}
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
		return jg.version, jg.buf.Params().Clone()
	}
	return 0, nil
}

// Counters exposes the leader's counter set (the gateway folds it into
// the status rollup).
func (l *Leader) Counters() *metrics.CounterSet { return l.counters }

// SubmitPartial implements coord.PartialExchange. A partial is proof of
// life (it refreshes the submitter's heartbeat), then the halt gate runs:
// while any shard is lost it is rejected with coord.ErrTierHalted — no
// global progress on a partial view of the fleet. A healthy partial takes
// its shard's slot as a zero-copy payload view; the one that fills the
// last slot folds and is answered with the install, any other at once
// with the zero GlobalInstall. Sent again, a partial is a repeat, never
// buffered twice, answered with the install once the fold is done: the
// wait runs outside l.mu and ends with errRetry at Grace, as does a
// different partial from a shard whose slot is full.
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
	if err == nil && pc.Round == 0 {
		err = fmt.Errorf("shard: partial from shard %d names no round", pc.ShardID)
	}
	if err != nil {
		l.counters.Counter("tier_bad_partials").Inc()
		return coord.GlobalInstall{}, err
	}
	slot := &jg.slots[pc.ShardID]
	if pc.Round == jg.rounds[pc.ShardID] {
		if folded := jg.folded; slot.Payload != nil {
			l.mu.Unlock()
			select {
			case <-folded:
			case <-time.After(l.cfg.Grace):
				err = errRetry
			}
			l.mu.Lock()
		}
		return coord.GlobalInstall{Version: jg.version, Blob: jg.buf.Bytes()}, err
	}
	if slot.Payload != nil {
		return coord.GlobalInstall{}, errRetry
	}
	// The partial stays in wire form: the fold's range kernels read
	// straight out of the validated view (§13).
	payload, err := codec.ParsePayload(pc.Blob)
	if dim := len(jg.buf.Params()); err == nil && payload.Dim() != dim {
		err = fmt.Errorf("shard: partial for job %q carries %d params, want %d", pc.Job, payload.Dim(), dim)
	}
	if err == nil && pc.BaseVersion > jg.version {
		err = fmt.Errorf("shard: partial base v%d is ahead of tier v%d (split-brain leader?)", pc.BaseVersion, jg.version)
	}
	if err != nil {
		l.counters.Counter("tier_bad_partials").Inc()
		return coord.GlobalInstall{}, err
	}
	*slot = aggregator.Update{ClientID: int64(pc.ShardID), Payload: payload, Weight: pc.Weight}
	jg.rounds[pc.ShardID] = pc.Round
	l.counters.Counter("tier_partials_received").Inc()
	l.counters.Counter("tier_partial_wire_bytes").Add(int64(len(pc.Blob)))
	l.counters.Counter("tier_updates_represented").Add(int64(pc.Updates))
	if slices.ContainsFunc(jg.slots, func(u aggregator.Update) bool { return u.Payload == nil }) {
		return coord.GlobalInstall{}, nil
	}
	l.foldLocked(jg)
	return coord.GlobalInstall{Version: jg.version, Blob: jg.buf.Bytes()}, nil
}

// foldLocked closes one job's generation through the parallel FedBuff
// kernels at server rate 1 — the data-weighted mean of the slots, FedAvg
// across shards — and wakes the repeats waiting on it. The fold runs in
// the next version's buffer, a copy of the current params, which is
// sealed and swapped in only if the fold succeeds. A failed fold (a
// non-finite partial past a shard's screen, or a poisoned weight) drops
// it, so every shard gets the last good install and drops its round.
func (l *Leader) foldLocked(jg *jobGlobal) {
	next := codec.NewVersionBuf(nil, len(jg.buf.Params()))
	copy(next.Params(), jg.buf.Params())
	if err := tierFold.Aggregate(next.Params(), jg.slots); err != nil {
		l.counters.Counter("tier_fold_errors").Inc()
	} else {
		next.Seal()
		jg.version++
		jg.buf = next
		l.counters.Counter("tier_folds").Inc()
	}
	for i := range jg.slots {
		jg.slots[i].Payload.Release()
	}
	clear(jg.slots)
	close(jg.folded)
	jg.folded = make(chan struct{})
}

// tierStatus is the leader's half of the gateway's tier section: the
// width, the halt verdict, the exchange counters, and one row per shard
// holding its index and heartbeat age for the gateway to complete.
func (l *Leader) tierStatus() tenant.TierStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	st := tenant.TierStatus{
		Shards:    l.cfg.Shards,
		Healthy:   l.healthyLocked(now),
		Counters:  l.counters.Snapshot(),
		ShardRows: make([]tenant.ShardRow, l.cfg.Shards),
	}
	for i, t := range l.lastPing {
		st.ShardRows[i] = tenant.ShardRow{Index: i, PingMS: -1}
		if !t.IsZero() {
			st.ShardRows[i].PingMS = now.Sub(t).Milliseconds()
		}
	}
	return st
}
