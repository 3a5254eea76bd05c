// Package fedsim is the paper's experimental framework (§3.4): a
// leader/executor simulator driven by a virtual clock that replays device
// availability traces, samples task durations from on-device benchmarks and
// a network bandwidth model, trains real models on per-client proxy data,
// and reports model and system metrics over both virtual time and
// communication rounds.
//
// Two training modes are supported, as in the paper: synchronous FedAvg
// with GFL-style client over-commitment, and asynchronous FedBuff with a
// priority-queue task scheduler, buffered aggregation and staleness limits.
package fedsim

import (
	"fmt"

	"flint/internal/aggregator"
	"flint/internal/data"
	"flint/internal/model"
)

// Mode selects the training mode.
type Mode string

// The two §3.4 training modes.
const (
	Sync  Mode = "fedavg"  // synchronous, round-based, over-committed
	Async Mode = "fedbuff" // asynchronous, buffered, staleness-limited
)

// Config drives one simulation job; it corresponds to the "job config"
// of §4.1 that "specifies the device traces, on-device performance
// distributions ... and other hyper-parameters".
type Config struct {
	Mode      Mode
	ModelKind model.Kind
	// Seed derives every stochastic choice in the job; two runs with the
	// same config are identical.
	Seed int64

	// LocalEpochs is E in taskDuration = t·E·|Dk| + 2M/N.
	LocalEpochs int
	// BatchSize is the client mini-batch size.
	BatchSize int
	// Schedule yields the client learning rate per round (Fig 10).
	Schedule model.Schedule
	// ProxMu enables FedProx's proximal term in local training (0 = off),
	// an algorithmic extension for heterogeneous clients.
	ProxMu float64
	// MaxShardExamples caps per-client records used in one task (0 = all);
	// mirrors client-level down-sampling.
	MaxShardExamples int

	// CohortSize is the sync-mode aggregation target per round.
	CohortSize int
	// OverCommit is the sync-mode selection factor (GFL-style: select
	// CohortSize×OverCommit, drop stragglers once the target is reached).
	OverCommit float64
	// RoundDeadlineSec bounds a sync round; stragglers past it are dropped.
	RoundDeadlineSec float64

	// Concurrency is the async-mode max in-flight client tasks.
	Concurrency int
	// BufferSize is the async-mode aggregation buffer K (Fig 7).
	BufferSize int
	// MaxStaleness discards async updates staler than this many rounds
	// (Fig 8).
	MaxStaleness int
	// StalenessAlpha is the FedBuff discount exponent.
	StalenessAlpha float64
	// ServerLR is the FedBuff server step size.
	ServerLR float64

	// MaxRounds stops the job after this many aggregations.
	MaxRounds int
	// EvalEvery evaluates every N rounds (0 disables evaluation).
	EvalEvery int
	// Metric picks the offline metric (AUPR or NDCG).
	Metric model.Metric

	// FailureRate is the per-task probability of a client-side failure
	// (crash, permission loss) independent of availability.
	FailureRate float64
	// Executors sizes the in-process executor pool ("a group of executors
	// poll tasks to run from a leader node").
	Executors int

	// Aggregation selects the reducer and the pre-reduce norm screen, as
	// on the live server (the zero value keeps the mode's reducer with no
	// screen; robust reducers are allowed in either mode here).
	Aggregation aggregator.AggregationConfig
	// DP enables the server's central-DP stage (§3.6): clip the round's
	// aggregate delta, add noise seeded per version (0 seed = Seed).
	DP aggregator.DPConfig
	// Adversary optionally poisons compromised clients' updates.
	Adversary *aggregator.Adversary

	// HaltAtRound/HaltDurationSec inject a leader/executor outage: the
	// leader "halts dispatching tasks until all executors have pinged it
	// with a healthy status-code" — modeled as a dispatch freeze in
	// virtual time.
	HaltAtRound     int
	HaltDurationSec float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Mode {
	case Sync:
		if c.CohortSize <= 0 {
			return fmt.Errorf("fedsim: sync mode needs CohortSize > 0, got %d", c.CohortSize)
		}
		if c.OverCommit < 1 {
			return fmt.Errorf("fedsim: OverCommit must be >= 1, got %v", c.OverCommit)
		}
		if c.RoundDeadlineSec <= 0 {
			return fmt.Errorf("fedsim: sync mode needs RoundDeadlineSec > 0, got %v", c.RoundDeadlineSec)
		}
	case Async:
		if c.Concurrency <= 0 {
			return fmt.Errorf("fedsim: async mode needs Concurrency > 0, got %d", c.Concurrency)
		}
		if c.BufferSize <= 0 {
			return fmt.Errorf("fedsim: async mode needs BufferSize > 0, got %d", c.BufferSize)
		}
		if c.MaxStaleness < 0 {
			return fmt.Errorf("fedsim: MaxStaleness must be >= 0, got %d", c.MaxStaleness)
		}
	default:
		return fmt.Errorf("fedsim: unknown mode %q", c.Mode)
	}
	if c.LocalEpochs <= 0 {
		return fmt.Errorf("fedsim: LocalEpochs must be positive, got %d", c.LocalEpochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("fedsim: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.Schedule == nil {
		return fmt.Errorf("fedsim: Schedule is required")
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("fedsim: MaxRounds must be positive, got %d", c.MaxRounds)
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return fmt.Errorf("fedsim: FailureRate %v outside [0,1)", c.FailureRate)
	}
	if c.Executors <= 0 {
		return fmt.Errorf("fedsim: Executors must be positive, got %d", c.Executors)
	}
	if _, err := c.Aggregation.WithDefaults(c.Mode == Async); err != nil {
		return err
	}
	if _, err := c.DP.WithDefaults(c.Seed); err != nil {
		return err
	}
	if c.Adversary != nil {
		if err := c.Adversary.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ShardProvider resolves a client id to its local dataset. Generators
// satisfy this lazily, so millions of clients need no resident storage.
type ShardProvider interface {
	Shard(id int64) data.ClientShard
}

// GeneratorProvider adapts a data.Generator into a ShardProvider.
type GeneratorProvider struct{ G data.Generator }

// Shard implements ShardProvider.
func (p GeneratorProvider) Shard(id int64) data.ClientShard { return p.G.GenerateClient(id) }

// PartitionProvider serves shards from materialized executor partitions,
// the §3.4 storage layout.
type PartitionProvider struct {
	shards map[int64]data.ClientShard
}

// NewPartitionProvider indexes the shards of the given partitions.
func NewPartitionProvider(shards []data.ClientShard) *PartitionProvider {
	m := make(map[int64]data.ClientShard, len(shards))
	for _, s := range shards {
		m[s.ClientID] = s
	}
	return &PartitionProvider{shards: m}
}

// Shard implements ShardProvider.
func (p *PartitionProvider) Shard(id int64) data.ClientShard { return p.shards[id] }
