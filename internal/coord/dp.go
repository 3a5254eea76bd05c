package coord

import (
	"math"
	"math/rand"
	"sync/atomic"

	"flint/internal/aggregator"
	"flint/internal/tensor"
)

// dpState is the commit pipeline's central-DP stage (§3.6 on the live
// path). It runs after the reduce, on the aggregate round delta — unlike
// the offline aggregator.DP wrapper, which clips each client update
// before a simulated reduce; on the live path the updates are pooled wire
// payloads, and clipping the single aggregate keeps the stage O(dim) with
// zero allocation. Order within a commit: screen → reduce → clip → noise.
type dpState struct {
	cfg DPConfig
	// sigma is the Gaussian noise multiplier σ = sqrt(2·ln(1/δ))/ε — the
	// inversion of the accountant's per-round bound, so one noised round
	// spends exactly the configured ε. Zero when Epsilon is 0 (clip-only).
	sigma float64
	// rounds counts noised commits — the accountant's composition input.
	// Atomic because /v1/status reads it off the commit path.
	rounds atomic.Int64
}

func newDPState(cfg DPConfig) *dpState {
	d := &dpState{cfg: cfg}
	if cfg.Epsilon > 0 {
		d.sigma = math.Sqrt(2*math.Log(1/cfg.Delta)) / cfg.Epsilon
	}
	return d
}

// apply clips the aggregate round delta (params − published) to ClipNorm
// and perturbs params with seeded Gaussian noise of standard deviation
// σ·ClipNorm/n, n being the kept update count. The noise stream is seeded
// from (Seed, version), not a shared mutable rng, so a commit's noise
// depends only on its configuration and committed version: two
// coordinators replaying the same rounds publish bit-identical models.
// Returns the cumulative ε after this round and whether noise was added
// (false in clip-only mode, which spends no budget).
func (d *dpState) apply(params, published tensor.Vector, version int, n int) (eps float64, noised bool) {
	var s float64
	for i := range params {
		diff := params[i] - published[i]
		s += diff * diff
	}
	// Scale the delta, not the params: the published base is not ours to
	// shrink. An overflowed (+Inf) norm yields factor 0 — the delta
	// vanishes and the round publishes the old params plus noise.
	norm := math.Sqrt(s)
	clip := norm > d.cfg.ClipNorm
	noised = d.sigma != 0
	if !clip && !noised {
		return 0, false
	}
	factor := d.cfg.ClipNorm / norm
	std := d.sigma * d.cfg.ClipNorm / float64(n)
	var rng *rand.Rand
	if noised {
		rng = rand.New(rand.NewSource(d.cfg.Seed + int64(version)*1_000_003))
	}
	// Clip and noise share one pass. Each element still goes through the
	// two expressions the separate passes applied, in the same order, and
	// the noise stream is drawn in index order, so the published params are
	// bit-identical to clipping the whole vector first.
	for i, p := range params {
		if clip {
			p = published[i] + (p-published[i])*factor
		}
		if noised {
			p += rng.NormFloat64() * std
		}
		params[i] = p
	}
	if noised {
		eps = d.epsilonSpent(d.rounds.Add(1))
	}
	return eps, noised
}

// epsilonSpent is the accountant: cumulative ε over `rounds` noised
// commits at δ, via the same strong-composition-style approximation the
// offline privacy-budget gate uses (aggregator.DPConfig.EpsilonApprox).
func (d *dpState) epsilonSpent(rounds int64) float64 {
	if rounds <= 0 || d.sigma == 0 {
		return 0
	}
	eps, err := aggregator.DPConfig{
		ClipNorm:        d.cfg.ClipNorm,
		NoiseMultiplier: d.sigma,
	}.EpsilonApprox(int(rounds), d.cfg.Delta)
	if err != nil {
		return math.Inf(1) // unreachable: rounds > 0 and Delta was validated
	}
	return eps
}

// PrivacyReport is /v1/status's view of the DP stage: the effective
// mechanism parameters and the accountant's running total.
type PrivacyReport struct {
	// ClipNorm is the aggregate-delta L2 cap.
	ClipNorm float64 `json:"clip_norm"`
	// NoiseMultiplier is σ; 0 means clip-only (no noise, no budget).
	NoiseMultiplier float64 `json:"noise_multiplier"`
	// Delta is the DP δ.
	Delta float64 `json:"delta"`
	// EpsilonPerRound is the configured per-round ε target.
	EpsilonPerRound float64 `json:"epsilon_per_round"`
	// DPRounds counts noised commits so far.
	DPRounds int64 `json:"dp_rounds"`
	// EpsilonSpent is the cumulative ε over DPRounds at Delta.
	EpsilonSpent float64 `json:"epsilon_spent"`
}

func (d *dpState) report() *PrivacyReport {
	rounds := d.rounds.Load()
	return &PrivacyReport{
		ClipNorm:        d.cfg.ClipNorm,
		NoiseMultiplier: d.sigma,
		Delta:           d.cfg.Delta,
		EpsilonPerRound: d.cfg.Epsilon,
		DPRounds:        rounds,
		EpsilonSpent:    d.epsilonSpent(rounds),
	}
}
