package aggregator

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"flint/internal/tensor"
)

// DPConfig enables the commit pipeline's post-reduce central-DP stage
// (§3.6): the round's aggregate delta is clipped to ClipNorm and seeded
// Gaussian noise is added before publishing, with a per-round (ε, δ)
// accountant. The zero value disables the stage.
type DPConfig struct {
	// Epsilon is the per-round ε target; > 0 enables noise with
	// multiplier σ = sqrt(2·ln(1/δ))/ε (the inversion of EpsilonApprox).
	Epsilon float64
	// Delta is the DP δ (default 1e-5 when the stage is enabled).
	Delta float64
	// ClipNorm caps the L2 norm of the aggregate delta (default 1 when
	// Epsilon > 0; setting it alone enables clipping without noise).
	ClipNorm float64
	// Seed seeds the Gaussian noise; the per-round stream is derived
	// from it and the committed version, so a replayed round reproduces
	// its noise exactly (0 = the job's seed).
	Seed int64
}

// Enabled reports whether the DP stage runs at commit.
func (d DPConfig) Enabled() bool { return d.ClipNorm > 0 || d.Epsilon > 0 }

// WithDefaults range-checks the config and, when the stage is enabled,
// fills δ, the clip norm and the noise seed (jobSeed when unset).
func (d DPConfig) WithDefaults(jobSeed int64) (DPConfig, error) {
	if d.Epsilon < 0 {
		return d, fmt.Errorf("aggregator: negative dp epsilon %v", d.Epsilon)
	}
	if d.ClipNorm < 0 {
		return d, fmt.Errorf("aggregator: negative dp clip norm %v", d.ClipNorm)
	}
	if !d.Enabled() {
		return d, nil
	}
	if d.Delta == 0 {
		d.Delta = 1e-5
	}
	if d.Delta <= 0 || d.Delta >= 1 {
		return d, fmt.Errorf("aggregator: dp delta %v outside (0, 1)", d.Delta)
	}
	if d.ClipNorm == 0 {
		d.ClipNorm = 1
	}
	if d.Seed == 0 {
		d.Seed = jobSeed
	}
	return d, nil
}

// DP is the central-DP commit stage, shared by the live server and the
// simulator. It runs after the reduce, on the aggregate round delta:
// the updates may be pooled wire payloads, and clipping the single
// aggregate keeps the stage O(dim) with zero allocation. Order within a
// commit: screen → reduce → clip → noise.
type DP struct {
	cfg DPConfig
	// sigma is the Gaussian noise multiplier σ = sqrt(2·ln(1/δ))/ε — the
	// inversion of the accountant's per-round bound, so one noised round
	// spends exactly the configured ε. Zero when Epsilon is 0 (clip-only).
	sigma float64
	// rounds counts noised commits — the accountant's composition input.
	// Atomic because /v1/status reads it off the commit path.
	rounds atomic.Int64
}

// NewDP builds the stage for a defaulted config (see WithDefaults); nil
// when the config disables it.
func NewDP(cfg DPConfig) *DP {
	if !cfg.Enabled() {
		return nil
	}
	d := &DP{cfg: cfg}
	if cfg.Epsilon > 0 {
		d.sigma = math.Sqrt(2*math.Log(1/cfg.Delta)) / cfg.Epsilon
	}
	return d
}

// Apply clips the aggregate round delta (params − published) to ClipNorm
// and perturbs params with seeded Gaussian noise of standard deviation
// σ·ClipNorm/n, n being the kept update count. The noise stream is seeded
// from (Seed, version), not a shared mutable rng, so a commit's noise
// depends only on its configuration and committed version: two
// pipelines replaying the same rounds publish bit-identical models.
// Returns the cumulative ε after this round and whether noise was added
// (false in clip-only mode, which spends no budget). It is Begin, the
// commit's Apply and Release back to back; a commit calls those itself,
// so the draw runs beside its screen and reduce.
func (d *DP) Apply(params, published tensor.Vector, version int, n int) (eps float64, noised bool) {
	c := d.Begin(version, len(params))
	defer c.Release()
	return c.Apply(params, published, n)
}

// DPCommit is one commit's pass through the DP stage: the noise of the
// version it publishes, drawn on its own goroutine from Begin on.
type DPCommit struct {
	d     *DP
	noise *dpNoise // nil in clip-only mode
	wg    sync.WaitGroup
	stop  atomic.Bool
}

// dpNoise is a pooled draw: the vector and the generator that fills it,
// re-seeded for each version.
type dpNoise struct {
	z   []float64
	rng *rand.Rand
}

var noisePool = sync.Pool{New: func() any { return &dpNoise{rng: rand.New(rand.NewSource(0))} }}

// noiseBlock is how many draws run between checks for a Release that no
// longer wants them (an aborted commit).
const noiseBlock = 4096

// Begin starts the pass of a commit that publishes version with dim
// parameters. When the stage adds noise, the (Seed, version) stream is
// drawn in index order into a pooled vector on its own goroutine, while
// the caller screens and reduces; nothing outlives the commit, as the
// vector goes back to the pool at Release. Every Begin must be paired
// with a Release. Nil on a nil stage.
func (d *DP) Begin(version, dim int) *DPCommit {
	if d == nil {
		return nil
	}
	c := &DPCommit{d: d}
	if d.sigma == 0 {
		return c
	}
	c.noise = noisePool.Get().(*dpNoise)
	if cap(c.noise.z) < dim {
		c.noise.z = make([]float64, dim)
	}
	z, rng := c.noise.z[:dim], c.noise.rng
	// Seeding resets the generator, so a pooled one yields exactly the
	// stream a fresh rand.New(rand.NewSource(seed)) would.
	rng.Seed(d.cfg.Seed + int64(version)*1_000_003)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for lo := 0; lo < len(z) && !c.stop.Load(); lo += noiseBlock {
			for i := range z[lo:min(lo+noiseBlock, len(z))] {
				z[lo+i] = rng.NormFloat64()
			}
		}
	}()
	return c
}

// Apply clips and noises params as DP.Apply documents, waiting for the
// draw Begin started and adding z[i]·std where DP.Apply drew z[i] inline —
// the same value in the same expression, so the published params are
// bit-identical. Call it at most once, before Release.
func (c *DPCommit) Apply(params, published tensor.Vector, n int) (eps float64, noised bool) {
	d := c.d
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
	var z []float64
	if noised {
		c.wg.Wait()
		z = c.noise.z[:len(params)]
	}
	// Clip and noise share one pass. Each element still goes through the
	// two expressions the separate passes applied, in the same order, and
	// the noise stream was drawn in index order, so the published params
	// are bit-identical to clipping the whole vector first.
	for i, p := range params {
		if clip {
			p = published[i] + (p-published[i])*factor
		}
		if noised {
			p += z[i] * std
		}
		params[i] = p
	}
	if noised {
		eps = d.epsilonSpent(d.rounds.Add(1))
	}
	return eps, noised
}

// Release ends the pass: it stops a draw Apply never waited for, waits
// for the goroutine and returns the vector to the pool. Idempotent; safe
// on nil.
func (c *DPCommit) Release() {
	if c == nil || c.noise == nil {
		return
	}
	c.stop.Store(true)
	c.wg.Wait()
	noisePool.Put(c.noise)
	c.noise = nil
}

// epsilonSpent is the accountant: cumulative ε over `rounds` noised
// commits at δ.
func (d *DP) epsilonSpent(rounds int64) float64 {
	if rounds <= 0 || d.sigma == 0 {
		return 0
	}
	eps, err := EpsilonApprox(d.sigma, int(rounds), d.cfg.Delta)
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
	// Sigma is the noise multiplier σ; 0 means clip-only (no noise, no
	// budget).
	Sigma float64 `json:"noise_multiplier"`
	// Delta is the DP δ.
	Delta float64 `json:"delta"`
	// EpsilonPerRound is the configured per-round ε target.
	EpsilonPerRound float64 `json:"epsilon_per_round"`
	// DPRounds counts noised commits so far.
	DPRounds int64 `json:"dp_rounds"`
	// EpsilonSpent is the cumulative ε over DPRounds at Delta.
	EpsilonSpent float64 `json:"epsilon_spent"`
}

// Report snapshots the mechanism parameters and the accountant.
func (d *DP) Report() *PrivacyReport {
	rounds := d.rounds.Load()
	return &PrivacyReport{
		ClipNorm:        d.cfg.ClipNorm,
		Sigma:           d.sigma,
		Delta:           d.cfg.Delta,
		EpsilonPerRound: d.cfg.Epsilon,
		DPRounds:        rounds,
		EpsilonSpent:    d.epsilonSpent(rounds),
	}
}

// EpsilonApprox returns a coarse (ε, δ)-DP accounting for `rounds`
// compositions of the Gaussian mechanism with noise multiplier sigma via
// the strong-composition-style bound ε ≈ sqrt(2·rounds·ln(1/δ))/σ — the
// live accountant and the decision workflow's privacy-budget gate. It is
// an engineering estimate, not a tight RDP account.
func EpsilonApprox(sigma float64, rounds int, delta float64) (float64, error) {
	if rounds <= 0 {
		return 0, fmt.Errorf("aggregator: rounds must be positive, got %d", rounds)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("aggregator: delta %v outside (0,1)", delta)
	}
	if sigma == 0 {
		return math.Inf(1), nil
	}
	return math.Sqrt(2*float64(rounds)*math.Log(1/delta)) / sigma, nil
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
