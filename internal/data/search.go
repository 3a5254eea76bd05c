package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flint/internal/tensor"
)

// SearchConfig parameterizes the search-domain generator (§4.3): ranking
// records where each query carries a group of candidate documents scored on
// the device. Relevance is graded 0–3 and evaluated with NDCG; the binary
// view (relevance ≥ 2) doubles as the click label for pointwise training.
type SearchConfig struct {
	Clients      int
	DenseDim     int // query-document match features (model A uses 44)
	DocsLo       int // min candidates per query
	DocsHi       int // max candidates per query
	Quantity     QuantityModel
	RelevanceCut float64 // graded relevance >= cut counts as a click
	Seed         int64
}

// DefaultSearchConfig matches model A's input spec and Dataset C's shape
// (millions of clients, ~1.5 queries each).
func DefaultSearchConfig(clients int, seed int64) SearchConfig {
	return SearchConfig{
		Clients:      clients,
		DenseDim:     44,
		DocsLo:       4,
		DocsHi:       12,
		Quantity:     SearchQuantity,
		RelevanceCut: 2,
		Seed:         seed,
	}
}

// clickThroughRate is the fraction of queries that receive any engagement;
// with ~8 candidates per query and one click each, the record-level label
// ratio lands near Dataset C's 0.06.
const clickThroughRate = 0.4

// SearchGenerator produces per-client query groups. A client's "quantity"
// counts queries; each query expands into DocsLo..DocsHi candidate records
// sharing a QueryID. The latent relevance function is global, while query
// intent and client behavior shift covariates per client.
type SearchGenerator struct {
	cfg  SearchConfig
	wRel tensor.Vector
}

// NewSearchGenerator builds the generator.
func NewSearchGenerator(cfg SearchConfig) (*SearchGenerator, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: search generator needs clients > 0, got %d", cfg.Clients)
	}
	if cfg.DenseDim <= 0 {
		return nil, fmt.Errorf("data: search dense dim must be positive, got %d", cfg.DenseDim)
	}
	if cfg.DocsLo <= 0 || cfg.DocsHi < cfg.DocsLo {
		return nil, fmt.Errorf("data: search docs range [%d,%d] invalid", cfg.DocsLo, cfg.DocsHi)
	}
	if err := cfg.Quantity.Validate(); err != nil {
		return nil, err
	}
	g := &SearchGenerator{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.wRel = tensor.NewVector(cfg.DenseDim)
	tensor.NormalInit(g.wRel, 0.6, rng)
	return g, nil
}

// Name returns the domain name.
func (g *SearchGenerator) Name() string { return "search" }

// NumClients returns the configured client population.
func (g *SearchGenerator) NumClients() int { return g.cfg.Clients }

// GenerateClient deterministically materializes client id's shard. QueryIDs
// are globally unique: id*maxQueriesPerClient + local index.
func (g *SearchGenerator) GenerateClient(id int64) ClientShard {
	rng := clientRNG(g.cfg.Seed+2e9, id)
	nQueries := g.cfg.Quantity.Sample(rng)
	shard := ClientShard{ClientID: id}
	clientShift := tensor.NewVector(g.cfg.DenseDim)
	tensor.NormalInit(clientShift, 0.3, rng)
	const maxQueries = 1 << 12
	for q := 0; q < nQueries; q++ {
		qid := id*maxQueries + int64(q) + 1
		nDocs := g.cfg.DocsLo + rng.Intn(g.cfg.DocsHi-g.cfg.DocsLo+1)
		scores := make([]float64, nDocs)
		docs := make([]*Example, nDocs)
		for d := 0; d < nDocs; d++ {
			ex := &Example{ClientID: id, QueryID: qid, Dense: make([]float64, g.cfg.DenseDim)}
			for i := range ex.Dense {
				ex.Dense[i] = rng.NormFloat64() + clientShift[i]*0.5
			}
			scores[d] = g.wRel.Dot(tensor.Vector(ex.Dense))/math.Sqrt(float64(g.cfg.DenseDim)) + rng.NormFloat64()*0.3
			docs[d] = ex
		}
		// Click feedback is query-level rare (Table 2: Dataset C label
		// ratio 0.06): only some queries produce engagement at all. On a
		// clicked query, the best-matching document earns grade 3 (grade
		// 2 when the margin is thin) and the runner-up grade 1; all other
		// queries contribute zero-relevance records. The binary click
		// label thresholds the grade at RelevanceCut.
		order := make([]int, nDocs)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		if rng.Float64() < clickThroughRate {
			top, second := order[0], order[1]
			margin := scores[top] - scores[second]
			if margin > 0.3 {
				docs[top].Relevance = 3
			} else {
				docs[top].Relevance = 2
			}
			docs[second].Relevance = 1
			for _, d := range order {
				if docs[d].Relevance >= g.cfg.RelevanceCut {
					docs[d].Label = 1
				}
			}
		}
		shard.Examples = append(shard.Examples, docs...)
	}
	return shard
}

// GenerateClients materializes shards for ids [0, n).
func (g *SearchGenerator) GenerateClients(n int) []ClientShard {
	if n > g.cfg.Clients {
		n = g.cfg.Clients
	}
	out := make([]ClientShard, n)
	for i := 0; i < n; i++ {
		out[i] = g.GenerateClient(int64(i))
	}
	return out
}

// TestSet draws held-out query groups (complete groups, so NDCG is always
// computed over full candidate lists). n counts records, not queries.
func (g *SearchGenerator) TestSet(n int) *Dataset {
	ds := &Dataset{}
	id := int64(g.cfg.Clients)
	for ds.Len() < n {
		shard := g.GenerateClient(id)
		ds.Examples = append(ds.Examples, shard.Examples...)
		id++
	}
	return ds
}
