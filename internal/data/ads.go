package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flint/internal/tensor"
)

// AdsConfig parameterizes the advertising-domain generator (§4.1): sparse
// CTR-style records where "a candidate is typically a potential advertisement
// ... decorated with client-side features". Records carry dense context
// features plus a multi-hot set of hashed categorical features.
type AdsConfig struct {
	Clients   int           // client population
	DenseDim  int           // dense context features per record
	SparseDim int           // hashed categorical space (model B uses 4133)
	ActiveLo  int           // min active sparse features per record
	ActiveHi  int           // max active sparse features per record
	BaseRate  float64       // target positive-label ratio (Table 2: 0.28)
	Quantity  QuantityModel // per-client record counts
	Noise     float64       // label noise: std of the logit perturbation
	Seed      int64
}

// DefaultAdsConfig returns the configuration used by the case studies,
// matched to model B's input spec and Dataset A's heterogeneity shape.
func DefaultAdsConfig(clients int, seed int64) AdsConfig {
	return AdsConfig{
		Clients:   clients,
		DenseDim:  16,
		SparseDim: 4133,
		ActiveLo:  20,
		ActiveHi:  60,
		BaseRate:  0.28,
		Quantity:  AdsQuantity,
		Noise:     1.0,
		Seed:      seed,
	}
}

// AdsGenerator produces per-client advertising shards with a fixed latent
// ground truth, so federated and centralized training see the same learnable
// signal. Client records are non-IID: each client has an interest profile
// (a tilt over the sparse feature space) and a dense covariate shift.
type AdsGenerator struct {
	cfg        AdsConfig
	wDense     tensor.Vector
	wSparse    tensor.Vector
	bias       float64
	logitScale float64
	zipfS      float64
}

// NewAdsGenerator builds the generator and calibrates the label bias so the
// marginal positive ratio lands near cfg.BaseRate.
func NewAdsGenerator(cfg AdsConfig) (*AdsGenerator, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: ads generator needs clients > 0, got %d", cfg.Clients)
	}
	if cfg.DenseDim <= 0 || cfg.SparseDim <= 0 {
		return nil, fmt.Errorf("data: ads dims must be positive (dense %d sparse %d)", cfg.DenseDim, cfg.SparseDim)
	}
	if cfg.ActiveLo <= 0 || cfg.ActiveHi < cfg.ActiveLo {
		return nil, fmt.Errorf("data: ads active range [%d,%d] invalid", cfg.ActiveLo, cfg.ActiveHi)
	}
	if cfg.BaseRate <= 0 || cfg.BaseRate >= 1 {
		return nil, fmt.Errorf("data: ads base rate %v outside (0,1)", cfg.BaseRate)
	}
	if err := cfg.Quantity.Validate(); err != nil {
		return nil, err
	}
	g := &AdsGenerator{cfg: cfg, zipfS: 1.2}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.wDense = tensor.NewVector(cfg.DenseDim)
	tensor.NormalInit(g.wDense, 0.7, rng)
	g.wSparse = tensor.NewVector(cfg.SparseDim)
	// Only a fraction of the sparse space is informative, like real CTR
	// data where most categorical values are noise.
	for i := range g.wSparse {
		if rng.Float64() < 0.2 {
			g.wSparse[i] = rng.NormFloat64() * 0.5
		}
	}
	g.calibrateBias(rng)
	return g, nil
}

// calibrateBias sets the logit offset so the sampled base rate matches the
// target within a few tenths of a percent.
func (g *AdsGenerator) calibrateBias(rng *rand.Rand) {
	const n = 4000
	scores := make([]float64, n)
	var sum, sq float64
	for i := range scores {
		ex := g.sampleRaw(rng, g.clientProfile(rng))
		scores[i] = g.rawScore(ex)
		sum += scores[i]
		sq += scores[i] * scores[i]
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 1e-9 {
		variance = 1e-9
	}
	// Scale the logit so ~one score-std spans three logits, then bisect
	// the bias so the simulated marginal (including client effects and
	// label noise) lands on the target base rate.
	g.logitScale = 3 / math.Sqrt(variance)
	logits := make([]float64, n)
	for i, s := range scores {
		logits[i] = g.logitScale*s + rng.NormFloat64()*0.4 + rng.NormFloat64()*g.cfg.Noise
	}
	sort.Float64s(logits)
	marginal := func(b float64) float64 {
		var m float64
		for _, l := range logits {
			m += tensor.Sigmoid(l + b)
		}
		return m / n
	}
	lo, hi := -50.0, 50.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if marginal(mid) > g.cfg.BaseRate {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Store the bias in raw-score units so the label path can keep the
	// form logitScale*(raw+bias).
	g.bias = (lo + hi) / 2 / g.logitScale
}

// Name returns the domain name.
func (g *AdsGenerator) Name() string { return "ads" }

// NumClients returns the configured client population.
func (g *AdsGenerator) NumClients() int { return g.cfg.Clients }

// adsProfile is a client's latent interest profile.
type adsProfile struct {
	denseShift tensor.Vector
	interests  []int // preferred sparse features
	engagement float64
}

func (g *AdsGenerator) clientProfile(rng *rand.Rand) adsProfile {
	p := adsProfile{
		denseShift: tensor.NewVector(g.cfg.DenseDim),
		interests:  make([]int, 24),
		engagement: rng.NormFloat64() * 0.4,
	}
	tensor.NormalInit(p.denseShift, 0.5, rng)
	for i := range p.interests {
		p.interests[i] = rng.Intn(g.cfg.SparseDim)
	}
	return p
}

// GenerateClient deterministically materializes client id's shard.
// The same (seed, id) pair always produces the same records, which lets
// executors lazily load partitions without storing them (paper §3.4).
func (g *AdsGenerator) GenerateClient(id int64) ClientShard {
	rng := clientRNG(g.cfg.Seed, id)
	profile := g.clientProfile(rng)
	n := g.cfg.Quantity.Sample(rng)
	shard := ClientShard{ClientID: id, Examples: make([]*Example, n)}
	for i := 0; i < n; i++ {
		ex := g.sampleRaw(rng, profile)
		ex.ClientID = id
		logit := g.logitScale*(g.rawScore(ex)+g.bias) + profile.engagement + rng.NormFloat64()*g.cfg.Noise
		if tensor.Sigmoid(logit) > rng.Float64() {
			ex.Label = 1
		}
		shard.Examples[i] = ex
	}
	return shard
}

// sampleRaw draws an unlabeled record for a client profile.
func (g *AdsGenerator) sampleRaw(rng *rand.Rand, p adsProfile) *Example {
	ex := &Example{Dense: make([]float64, g.cfg.DenseDim)}
	for i := range ex.Dense {
		shift := 0.0
		if p.denseShift != nil {
			shift = p.denseShift[i]
		}
		ex.Dense[i] = rng.NormFloat64() + shift
	}
	active := g.cfg.ActiveLo + rng.Intn(g.cfg.ActiveHi-g.cfg.ActiveLo+1)
	seen := make(map[int]struct{}, active)
	zipf := rand.NewZipf(rng, g.zipfS, 1, uint64(g.cfg.SparseDim-1))
	for len(seen) < active {
		var idx int
		if len(p.interests) > 0 && rng.Float64() < 0.35 {
			idx = p.interests[rng.Intn(len(p.interests))]
		} else {
			idx = int(zipf.Uint64())
		}
		seen[idx] = struct{}{}
	}
	ex.Sparse = make([]int, 0, len(seen))
	for idx := range seen {
		ex.Sparse = append(ex.Sparse, idx)
	}
	return ex
}

// rawScore is the latent ground-truth logit before bias and noise.
func (g *AdsGenerator) rawScore(ex *Example) float64 {
	s := 0.0
	for i, x := range ex.Dense {
		s += g.wDense[i] * x * 0.3
	}
	for _, idx := range ex.Sparse {
		s += g.wSparse[idx]
	}
	return s
}

// GenerateClients materializes shards for ids [0, n).
func (g *AdsGenerator) GenerateClients(n int) []ClientShard {
	if n > g.cfg.Clients {
		n = g.cfg.Clients
	}
	out := make([]ClientShard, n)
	for i := 0; i < n; i++ {
		out[i] = g.GenerateClient(int64(i))
	}
	return out
}

// TestSet draws a held-out evaluation set from clients beyond the training
// population, so FL and centralized baselines share one unbiased testbed.
func (g *AdsGenerator) TestSet(n int) *Dataset {
	ds := &Dataset{Examples: make([]*Example, 0, n)}
	id := int64(g.cfg.Clients) // held-out client space
	for ds.Len() < n {
		shard := g.GenerateClient(id)
		ds.Examples = append(ds.Examples, shard.Examples...)
		id++
	}
	ds.Examples = ds.Examples[:n]
	return ds
}

// clientRNG derives a deterministic per-client RNG from the dataset seed,
// decorrelating nearby ids with a splitmix-style scramble.
func clientRNG(seed, id int64) *rand.Rand {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
