package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestGeneratorsClientDeterminism: every generator must return identical
// shards for identical (seed, id), the property executors rely on for lazy
// partition loading.
func TestGeneratorsClientDeterminism(t *testing.T) {
	gens := make([]Generator, 0, 3)
	ag, err := NewAdsGenerator(DefaultAdsConfig(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMessagingGenerator(DefaultMessagingConfig(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSearchGenerator(DefaultSearchConfig(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	gens = append(gens, ag, mg, sg)
	for _, g := range gens {
		for id := int64(0); id < 10; id++ {
			a := g.GenerateClient(id)
			b := g.GenerateClient(id)
			if len(a.Examples) != len(b.Examples) {
				t.Fatalf("%s client %d: sizes differ", g.Name(), id)
			}
			for i := range a.Examples {
				ea, eb := a.Examples[i], b.Examples[i]
				if ea.Label != eb.Label || ea.Relevance != eb.Relevance || ea.QueryID != eb.QueryID {
					t.Fatalf("%s client %d example %d differs", g.Name(), id, i)
				}
				for j := range ea.Dense {
					if ea.Dense[j] != eb.Dense[j] {
						t.Fatalf("%s client %d dense differs", g.Name(), id)
					}
				}
				for j := range ea.Tokens {
					if ea.Tokens[j] != eb.Tokens[j] {
						t.Fatalf("%s client %d tokens differ", g.Name(), id)
					}
				}
			}
		}
	}
}

// TestGeneratorsSeedSensitivity: different dataset seeds must produce
// different shards for the same client id.
func TestGeneratorsSeedSensitivity(t *testing.T) {
	g1, err := NewAdsGenerator(DefaultAdsConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewAdsGenerator(DefaultAdsConfig(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := g1.GenerateClient(0), g2.GenerateClient(0)
	if len(a.Examples) == len(b.Examples) {
		same := true
		for i := range a.Examples {
			if len(a.Examples[i].Sparse) != len(b.Examples[i].Sparse) {
				same = false
				break
			}
		}
		if same && len(a.Examples) > 3 {
			// Sizes matching is possible; full structural equality is not.
			identical := true
			for i := range a.Examples {
				if a.Examples[i].Label != b.Examples[i].Label {
					identical = false
					break
				}
			}
			if identical {
				t.Fatal("different seeds produced identical shards")
			}
		}
	}
}

// TestClientRNGStreamsDiffer: the splitmix-style scramble must decorrelate
// adjacent client ids.
func TestClientRNGStreamsDiffer(t *testing.T) {
	f := func(seed int64, id int64) bool {
		if id < 0 {
			id = -id
		}
		a := clientRNG(seed, id).Float64()
		b := clientRNG(seed, id+1).Float64()
		c := clientRNG(seed+1, id).Float64()
		return a != b && a != c
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuantitySampleBounds: samples always respect Min and Cap.
func TestQuantitySampleBounds(t *testing.T) {
	f := func(mu, sigma float64, seed int64) bool {
		q := QuantityModel{Mu: clampF(mu, -3, 6), Sigma: clampF(abs(sigma), 0, 3), Min: 1, Cap: 1000}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			n := q.Sample(rng)
			if n < 1 || n > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clampF(x, lo, hi float64) float64 {
	if x != x { // NaN
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestMessagingTopicConcentration: clients should mostly draw tokens from
// few topic bands — the non-IIDness that drives Fig 10's instability.
func TestMessagingTopicConcentration(t *testing.T) {
	cfg := DefaultMessagingConfig(40, 9)
	g, err := NewMessagingGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	band := cfg.Vocab / cfg.Topics
	concentrated := 0
	for id := int64(0); id < 40; id++ {
		shard := g.GenerateClient(id)
		counts := make(map[int]int)
		total := 0
		for _, ex := range shard.Examples {
			for _, tok := range ex.Tokens {
				counts[tok/band]++
				total++
			}
		}
		// Top-3 topic share.
		best := make([]int, 0, len(counts))
		for _, c := range counts {
			best = append(best, c)
		}
		top := 0
		for k := 0; k < 3; k++ {
			idx, m := -1, -1
			for i, c := range best {
				if c > m {
					m, idx = c, i
				}
			}
			if idx >= 0 {
				top += best[idx]
				best[idx] = -1
			}
		}
		if float64(top)/float64(total) > 0.6 {
			concentrated++
		}
	}
	if concentrated < 20 {
		t.Fatalf("only %d of 40 clients are topic-concentrated; Dirichlet mixing too flat", concentrated)
	}
}

// TestSearchQueryGroupsNeverSplitAcrossClients: a query's candidates always
// share the client, the property the proxy partitioner depends on.
func TestSearchQueryGroupsNeverSplitAcrossClients(t *testing.T) {
	g, err := NewSearchGenerator(DefaultSearchConfig(60, 13))
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int64]int64)
	for id := int64(0); id < 60; id++ {
		for _, ex := range g.GenerateClient(id).Examples {
			if prev, ok := owner[ex.QueryID]; ok && prev != ex.ClientID {
				t.Fatalf("query %d spans clients %d and %d", ex.QueryID, prev, ex.ClientID)
			}
			owner[ex.QueryID] = ex.ClientID
		}
	}
}
