// Package coord is the live serving half of the platform: a concurrent,
// wall-clock federated coordination server that production devices check in
// to, receive training tasks from, and submit model updates to.
//
// It complements internal/fedsim — the virtual-clock what-if simulator of
// paper §3.4 — by reusing the same engine pieces (aggregator strategies,
// availability criteria, device profiles, the versioned model store) behind
// an online API:
//
//   - a sharded device registry with striped locks (O(1) check-in and
//     heartbeat, eligibility filtering via availability.Criteria);
//   - a round-lifecycle state machine (open → aggregating → committed |
//     abandoned, plus open → abandoned) driving both synchronous FedAvg
//     and asynchronous FedBuff rounds, its verdicts asked of the round
//     rule the simulator shares (internal/round);
//   - an update-ingest pipeline with a bounded queue, per-round quorum and
//     wall-clock deadline handling, and staleness bounds in async mode;
//   - model-version publishing through internal/modelstore and serving
//     counters through internal/metrics.
//
// cmd/flint-server runs the coordinator behind a stdlib net/http JSON API
// (/v1/checkin, /v1/task, /v1/update, /v1/status); cmd/flint-fleet drives it
// with thousands of goroutine devices drawn from device.BenchPool profiles.
package coord

import (
	"fmt"
	"time"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/transport"
)

// Mode selects the training protocol the coordinator runs.
type Mode string

// The two serving modes, mirroring fedsim's Sync/Async split (§3.4).
const (
	ModeSync  Mode = "sync"  // synchronous FedAvg rounds
	ModeAsync Mode = "async" // asynchronous FedBuff buffer generations
)

// ParseMode converts a CLI string into a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeSync, ModeAsync:
		return Mode(s), nil
	}
	return "", fmt.Errorf("coord: unknown mode %q (want sync or async)", s)
}

// AggregationConfig and DPConfig are the commit pipeline's reducer/screen
// and central-DP settings; their fields, range checks and defaults live in
// internal/aggregator, shared with the simulator.
type (
	AggregationConfig = aggregator.AggregationConfig
	DPConfig          = aggregator.DPConfig
)

// Config parameterizes a Coordinator.
type Config struct {
	// Mode is the training protocol (sync FedAvg or async FedBuff).
	Mode Mode
	// ModelKind selects the Table 5 architecture to train.
	ModelKind model.Kind
	// ModelName is the modelstore name versions are published under.
	ModelName string
	// Seed seeds model initialization.
	Seed int64

	// TargetUpdates is K: the update count that triggers aggregation
	// (sync round size / async buffer size).
	TargetUpdates int
	// Quorum is the minimum update count accepted at a round deadline;
	// below it the round is abandoned. Defaults to TargetUpdates/2.
	Quorum int
	// OverCommit is the sync-mode assignment multiplier baseline: up to
	// TargetUpdates*OverCommit devices are handed the round's task so
	// stragglers and dropouts don't stall the round (§3.4). When the
	// scheduling plane has measured the fleet, each round's effective
	// multiplier is this base scaled by the measured straggler tail
	// (capped by sched.MaxOverCommit).
	OverCommit float64
	// MaxInflight caps outstanding async assignments (0 = 4×Target).
	MaxInflight int
	// RoundDeadline bounds a round's wall-clock collecting time.
	RoundDeadline time.Duration
	// MaxStaleness rejects async updates whose base version lags the
	// published version by more than this many commits (0 = unbounded).
	MaxStaleness int

	// QueueDepth bounds the update-ingest queue; a full queue sheds load
	// with ErrBusy rather than blocking device connections.
	QueueDepth int
	// DeviceTTL is how long after its last check-in/heartbeat a device
	// still counts as connected.
	DeviceTTL time.Duration
	// MaxDevices caps how many distinct devices this coordinator admits
	// (0 = unlimited). Over-quota check-ins are rejected with
	// ErrOverQuota semantics (HTTP 429) until sweeps free slots — the
	// per-job quota of the multi-tenant plane, so one hungry job can't
	// absorb the whole fleet.
	MaxDevices int
	// Criteria gates task assignment (§3.2 participation filtering).
	Criteria availability.Criteria

	// ServerLR and StalenessAlpha parameterize async FedBuff.
	ServerLR       float64
	StalenessAlpha float64

	// Transport defines the per-cohort wire-scheme policies and the
	// delta-broadcast window (internal/transport). Scheme selection is
	// no longer a global knob: each device is classified into a cohort
	// at check-in and negotiation constrains the cohort policy to the
	// schemes the device advertised it can decode. The zero value gets
	// transport defaults (default cohort f32/q8/q8, low-bandwidth
	// cohort topk/q8/topk, 8 versions of delta history).
	Transport transport.Config

	// Sched parameterizes the scheduling plane (internal/sched): the
	// per-device telemetry EWMAs, the measured-bandwidth cohort map that
	// overrides the WiFi/cellular transport classification, the sync
	// deadline gate, and the straggler-tail over-commit model. It is
	// always on; the zero value gets the defaults, and its fixed tuning
	// is the package's constants.
	Sched sched.Config

	// Aggregation selects the commit reducer and pre-reduce norm screen.
	// The zero value keeps the mode's default strategy with no screen.
	// The robust reducers require sync mode, are refused in hierarchical
	// (shard) mode, and default ScreenMedianFactor to 4 when neither
	// screen knob is set.
	Aggregation AggregationConfig

	// DP enables central differential privacy on the commit path: clip
	// the aggregate delta, add seeded Gaussian noise, account ε per
	// round. The zero value disables it; shard mode refuses it, and its
	// noise seed defaults to Seed.
	DP DPConfig

	// Exchange, when non-nil, puts the coordinator in hierarchical
	// (shard) mode: a ready round is reduced to a weighted partial —
	// through the same fused payload kernels a local commit uses — and
	// shipped through the exchange as a wire-form codec blob instead of
	// being folded into this replica's own params. The global model
	// advances only when an exchange response carries a newer version
	// (internal/shard's Leader is the other side). Requires ModeSync:
	// the tier's cross-shard fold is where async staleness handling
	// lives.
	Exchange PartialExchange
	// ExchangeJob names this coordinator's job on the tier exchange, so
	// one leader can reduce several tenants' partials. The tenant
	// registry sets it to the job name; empty means the default job.
	ExchangeJob string
	// ShardID identifies this replica on the tier exchange (its index
	// in the gateway's consistent-hash ring).
	ShardID int

	// LocalSteps is the per-task local training step count hint sent to
	// devices.
	LocalSteps int
	// StoreDir, when non-empty, persists published versions to disk.
	StoreDir string
	// KeepVersions bounds how many published model versions the store
	// retains (commits prune the oldest). Negative keeps everything;
	// 0 means the default. Long-running servers need a bound — every
	// version is a full serialized model.
	KeepVersions int
}

func (c Config) withDefaults() (Config, error) {
	if c.Mode == "" {
		c.Mode = ModeSync
	}
	if c.Mode != ModeSync && c.Mode != ModeAsync {
		return c, fmt.Errorf("coord: unknown mode %q", c.Mode)
	}
	if c.ModelKind == "" {
		c.ModelKind = model.KindA
	}
	if c.ModelName == "" {
		c.ModelName = "served"
	}
	if c.TargetUpdates <= 0 {
		c.TargetUpdates = 16
	}
	if c.Quorum <= 0 {
		c.Quorum = (c.TargetUpdates + 1) / 2
	}
	if c.Quorum > c.TargetUpdates {
		return c, fmt.Errorf("coord: quorum %d exceeds target %d", c.Quorum, c.TargetUpdates)
	}
	if c.OverCommit < 1 {
		c.OverCommit = 1.3
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.TargetUpdates
	}
	if c.RoundDeadline <= 0 {
		c.RoundDeadline = 30 * time.Second
	}
	if c.MaxStaleness < 0 {
		return c, fmt.Errorf("coord: negative max staleness %d", c.MaxStaleness)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.TargetUpdates
	}
	if c.DeviceTTL <= 0 {
		c.DeviceTTL = 2 * time.Minute
	}
	if c.ServerLR <= 0 {
		c.ServerLR = 1
	}
	if c.StalenessAlpha < 0 {
		return c, fmt.Errorf("coord: negative staleness alpha %v", c.StalenessAlpha)
	}
	if c.Exchange != nil {
		if c.Mode != ModeSync {
			return c, fmt.Errorf("coord: hierarchical (shard) mode requires sync rounds, got %s", c.Mode)
		}
		if c.ShardID < 0 {
			return c, fmt.Errorf("coord: negative shard id %d", c.ShardID)
		}
	}
	var err error
	if c.Aggregation, err = c.Aggregation.WithDefaults(c.Mode == ModeAsync); err != nil {
		return c, fmt.Errorf("coord: %w", err)
	}
	if c.Aggregation.Robust() {
		if c.Mode != ModeSync {
			// The robust column reducers select per coordinate over the whole
			// round population; FedBuff's incremental buffer folds have no
			// population to select from.
			return c, fmt.Errorf("coord: robust aggregation %q requires sync mode, got %s", c.Aggregation.Strategy, c.Mode)
		}
		if c.Exchange != nil {
			return c, fmt.Errorf("coord: robust aggregation %q is unavailable in hierarchical (shard) mode: each shard reduces only its own cohort, so a per-shard median/trim would not be robust over the round population — use the per-shard norm screen (ScreenMaxNorm / ScreenMedianFactor) instead", c.Aggregation.Strategy)
		}
		// Boosted attacks announce themselves by norm before they reach
		// the reducer, so a robust reducer brings a median-factor screen
		// unless either screen knob is set.
		if c.Aggregation.ScreenMaxNorm == 0 && c.Aggregation.ScreenMedianFactor == 0 {
			c.Aggregation.ScreenMedianFactor = 4
		}
	}
	if c.DP, err = c.DP.WithDefaults(c.Seed); err != nil {
		return c, fmt.Errorf("coord: %w", err)
	}
	if c.DP.Enabled() && c.Exchange != nil {
		// The DP stage noises the full-population aggregate once per
		// round; per-shard noise would compound σ by sqrt(shards) and the
		// accountant would undercount. The tier leader is where a sharded
		// DP stage belongs; until it exists, reject rather than mislead.
		return c, fmt.Errorf("coord: central DP is unavailable in hierarchical (shard) mode: noise must be added once over the full round population, not per shard")
	}
	if c.LocalSteps <= 0 {
		c.LocalSteps = 20
	}
	if c.Transport, err = c.Transport.WithDefaults(); err != nil {
		return c, fmt.Errorf("coord: %w", err)
	}
	if c.Sched, err = c.Sched.WithDefaults(); err != nil {
		return c, fmt.Errorf("coord: %w", err)
	}
	if c.KeepVersions == 0 {
		c.KeepVersions = 8
	}
	return c, nil
}
