package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flint/internal/tensor"
)

// MessagingConfig parameterizes the messaging-domain generator (§4.2):
// token-sequence records for abuse/spam-style classification, generated
// synthetically because the paper's message data is end-to-end encrypted
// ("to create a proxy dataset without data decryption, we partition a
// dataset of synthetic messages").
type MessagingConfig struct {
	Clients  int
	Vocab    int // token vocabulary (model C uses 6400)
	SeqLo    int // min tokens per message
	SeqHi    int // max tokens per message
	Topics   int // latent topic count driving client non-IIDness
	BaseRate float64
	Tasks    int // >1 adds auxiliary task labels for multi-task models
	Quantity QuantityModel
	Seed     int64
}

// DefaultMessagingConfig matches model C's input spec and Dataset B's shape.
func DefaultMessagingConfig(clients int, seed int64) MessagingConfig {
	return MessagingConfig{
		Clients:  clients,
		Vocab:    6400,
		SeqLo:    8,
		SeqHi:    48,
		Topics:   12,
		BaseRate: 0.05,
		Tasks:    1,
		Quantity: MessagingQuantity,
		Seed:     seed,
	}
}

// MessagingGenerator produces token-sequence shards. Each client mixes a few
// latent topics (non-IID covariates); labels are driven by per-task token
// weight vectors, so embedding models have real signal to learn.
type MessagingGenerator struct {
	cfg        MessagingConfig
	topicBase  []int           // topic t occupies a contiguous token band
	taskWeight []tensor.Vector // per-task token weights
	taskBias   []float64
	taskScale  []float64 // logit scale so the sigmoid saturates vs score spread
}

// NewMessagingGenerator builds the generator and calibrates per-task biases.
func NewMessagingGenerator(cfg MessagingConfig) (*MessagingGenerator, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: messaging generator needs clients > 0, got %d", cfg.Clients)
	}
	if cfg.Vocab < 64 {
		return nil, fmt.Errorf("data: messaging vocab %d too small", cfg.Vocab)
	}
	if cfg.SeqLo <= 0 || cfg.SeqHi < cfg.SeqLo {
		return nil, fmt.Errorf("data: messaging sequence range [%d,%d] invalid", cfg.SeqLo, cfg.SeqHi)
	}
	if cfg.Topics <= 0 {
		return nil, fmt.Errorf("data: messaging topics must be positive, got %d", cfg.Topics)
	}
	if cfg.BaseRate <= 0 || cfg.BaseRate >= 1 {
		return nil, fmt.Errorf("data: messaging base rate %v outside (0,1)", cfg.BaseRate)
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 1
	}
	if err := cfg.Quantity.Validate(); err != nil {
		return nil, err
	}
	g := &MessagingGenerator{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.topicBase = make([]int, cfg.Topics)
	band := cfg.Vocab / cfg.Topics
	for t := range g.topicBase {
		g.topicBase[t] = t * band
	}
	g.taskWeight = make([]tensor.Vector, cfg.Tasks)
	g.taskBias = make([]float64, cfg.Tasks)
	for t := 0; t < cfg.Tasks; t++ {
		w := tensor.NewVector(cfg.Vocab)
		// A sparse set of "signal tokens" carries each task's label
		// information (spam tokens, question tokens, ...).
		for i := range w {
			if rng.Float64() < 0.06 {
				w[i] = rng.NormFloat64() * 2.5
			}
		}
		g.taskWeight[t] = w
	}
	g.calibrate(rng)
	return g, nil
}

func (g *MessagingGenerator) calibrate(rng *rand.Rand) {
	const n = 4000
	g.taskScale = make([]float64, len(g.taskBias))
	for t := range g.taskBias {
		rate := g.cfg.BaseRate
		if t > 0 {
			rate = 0.15 // auxiliary tasks are less rare
		}
		scores := make([]float64, n)
		var sum, sq float64
		for i := range scores {
			toks := g.sampleTokens(rng, g.clientMixture(rng))
			scores[i] = g.tokenScore(t, toks)
			sum += scores[i]
			sq += scores[i] * scores[i]
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if variance < 1e-9 {
			variance = 1e-9
		}
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		idx := int(float64(n) * (1 - rate))
		if idx >= n {
			idx = n - 1
		}
		g.taskBias[t] = -sorted[idx]
		// Scale the logit so one score-std spans ~6 logits: examples
		// clearly above the quantile saturate to label 1, clearly below
		// to 0, keeping the marginal rate at the calibrated quantile.
		g.taskScale[t] = 6 / math.Sqrt(variance)
	}
}

// Name returns the domain name.
func (g *MessagingGenerator) Name() string { return "messaging" }

// NumClients returns the configured client population.
func (g *MessagingGenerator) NumClients() int { return g.cfg.Clients }

func (g *MessagingGenerator) clientMixture(rng *rand.Rand) []float64 {
	// Dirichlet(0.3) over topics: most clients concentrate on few topics.
	mix := make([]float64, g.cfg.Topics)
	var sum float64
	for i := range mix {
		mix[i] = gammaSample(rng, 0.3)
		sum += mix[i]
	}
	if sum == 0 {
		mix[rng.Intn(len(mix))] = 1
		sum = 1
	}
	for i := range mix {
		mix[i] /= sum
	}
	return mix
}

func (g *MessagingGenerator) sampleTokens(rng *rand.Rand, mix []float64) []int {
	n := g.cfg.SeqLo + rng.Intn(g.cfg.SeqHi-g.cfg.SeqLo+1)
	band := g.cfg.Vocab / g.cfg.Topics
	toks := make([]int, n)
	for i := range toks {
		t := sampleCategorical(rng, mix)
		toks[i] = g.topicBase[t] + rng.Intn(band)
	}
	return toks
}

func (g *MessagingGenerator) tokenScore(task int, toks []int) float64 {
	if len(toks) == 0 {
		return 0
	}
	var s float64
	for _, tok := range toks {
		s += g.taskWeight[task][tok]
	}
	return s / float64(len(toks))
}

// GenerateClient deterministically materializes client id's shard.
func (g *MessagingGenerator) GenerateClient(id int64) ClientShard {
	rng := clientRNG(g.cfg.Seed+1e9, id)
	mix := g.clientMixture(rng)
	n := g.cfg.Quantity.Sample(rng)
	shard := ClientShard{ClientID: id, Examples: make([]*Example, n)}
	for i := 0; i < n; i++ {
		toks := g.sampleTokens(rng, mix)
		ex := &Example{ClientID: id, Tokens: toks}
		if g.cfg.Tasks > 1 {
			ex.Tasks = make([]float64, g.cfg.Tasks)
		}
		for t := 0; t < g.cfg.Tasks; t++ {
			logit := g.taskScale[t]*(g.tokenScore(t, toks)+g.taskBias[t]) + rng.NormFloat64()*0.5
			label := 0.0
			if tensor.Sigmoid(logit) > rng.Float64() {
				label = 1
			}
			if t == 0 {
				ex.Label = label
			}
			if ex.Tasks != nil {
				ex.Tasks[t] = label
			}
		}
		shard.Examples[i] = ex
	}
	return shard
}

// GenerateClients materializes shards for ids [0, n).
func (g *MessagingGenerator) GenerateClients(n int) []ClientShard {
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
// population.
func (g *MessagingGenerator) TestSet(n int) *Dataset {
	ds := &Dataset{Examples: make([]*Example, 0, n)}
	id := int64(g.cfg.Clients)
	for ds.Len() < n {
		shard := g.GenerateClient(id)
		ds.Examples = append(ds.Examples, shard.Examples...)
		id++
	}
	ds.Examples = ds.Examples[:n]
	return ds
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia-Tsang (with the
// boost for shape < 1), enough for Dirichlet mixtures.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

func sampleCategorical(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}
