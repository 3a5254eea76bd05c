package aggregator

import (
	"fmt"
	"math"
	"math/rand"

	"flint/internal/tensor"
)

// DPConfig parameterizes FL with differential privacy (§3.6): each client
// update is clipped to ClipNorm and Gaussian noise with standard deviation
// NoiseMultiplier·ClipNorm/n is added to the average of n updates — the
// central-DP Gaussian mechanism on the aggregate.
type DPConfig struct {
	ClipNorm        float64
	NoiseMultiplier float64
	Seed            int64
}

// Validate reports configuration errors.
func (c DPConfig) Validate() error {
	if c.ClipNorm <= 0 {
		return fmt.Errorf("aggregator: DP clip norm must be positive, got %v", c.ClipNorm)
	}
	if c.NoiseMultiplier < 0 {
		return fmt.Errorf("aggregator: DP noise multiplier must be >= 0, got %v", c.NoiseMultiplier)
	}
	return nil
}

// DP wraps a strategy with the clip-and-noise mechanism.
type DP struct {
	Config DPConfig
	Inner  Strategy
	rng    *rand.Rand
}

// NewDP builds the wrapper with its own seeded noise source.
func NewDP(cfg DPConfig, inner Strategy) (*DP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("aggregator: DP needs an inner strategy")
	}
	return &DP{Config: cfg, Inner: inner, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements Strategy.
func (d *DP) Name() string { return fmt.Sprintf("dp(%s)", d.Inner.Name()) }

// Aggregate implements Strategy: clips every update, delegates, then
// perturbs the aggregate with calibrated Gaussian noise.
func (d *DP) Aggregate(global tensor.Vector, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("aggregator: DP with no updates")
	}
	clipped := make([]Update, len(updates))
	for i, u := range updates {
		c := u
		c.Delta = u.Delta.Clone()
		c.Delta.Clip(d.Config.ClipNorm)
		clipped[i] = c
	}
	if err := d.Inner.Aggregate(global, clipped); err != nil {
		return err
	}
	std := d.Config.NoiseMultiplier * d.Config.ClipNorm / float64(len(updates))
	if std > 0 {
		for i := range global {
			global[i] += d.rng.NormFloat64() * std
		}
	}
	return nil
}

// EpsilonApprox returns a coarse (ε, δ)-DP accounting for `rounds`
// compositions of the Gaussian mechanism via the strong-composition-style
// bound ε ≈ sqrt(2·rounds·ln(1/δ))/σ, usable for the decision workflow's
// privacy-budget gate. It is an engineering estimate, not a tight RDP
// account.
func (c DPConfig) EpsilonApprox(rounds int, delta float64) (float64, error) {
	if rounds <= 0 {
		return 0, fmt.Errorf("aggregator: rounds must be positive, got %d", rounds)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("aggregator: delta %v outside (0,1)", delta)
	}
	if c.NoiseMultiplier == 0 {
		return math.Inf(1), nil
	}
	return math.Sqrt(2*float64(rounds)*math.Log(1/delta)) / c.NoiseMultiplier, nil
}

// TEEThroughput describes the enclave-side aggregation load: updates per
// second and ingest bandwidth, the §3.5 infrastructure projection.
type TEEThroughput struct {
	UpdatesPerSec float64
	BytesPerSec   float64
}

// Throughput computes the enclave load for a task aggregating `tasks`
// updates of `updateBytes` over `seconds` of wall time.
func Throughput(tasks int, updateBytes int, seconds float64) (TEEThroughput, error) {
	if seconds <= 0 {
		return TEEThroughput{}, fmt.Errorf("aggregator: throughput over non-positive duration %v", seconds)
	}
	ups := float64(tasks) / seconds
	return TEEThroughput{UpdatesPerSec: ups, BytesPerSec: ups * float64(updateBytes)}, nil
}
