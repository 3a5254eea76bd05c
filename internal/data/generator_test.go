package data

import (
	"testing"
)

func TestAdsGeneratorDeterministicAndLabeled(t *testing.T) {
	g, err := NewAdsGenerator(DefaultAdsConfig(100, 42))
	if err != nil {
		t.Fatal(err)
	}
	a := g.GenerateClient(7)
	b := g.GenerateClient(7)
	if len(a.Examples) != len(b.Examples) {
		t.Fatal("GenerateClient must be deterministic in shard size")
	}
	for i := range a.Examples {
		if a.Examples[i].Label != b.Examples[i].Label {
			t.Fatal("GenerateClient must be deterministic in labels")
		}
		if a.Examples[i].ClientID != 7 {
			t.Fatal("ClientID must be stamped")
		}
		if len(a.Examples[i].Dense) != 16 {
			t.Fatalf("dense dim %d", len(a.Examples[i].Dense))
		}
		for _, idx := range a.Examples[i].Sparse {
			if idx < 0 || idx >= 4133 {
				t.Fatalf("sparse index %d out of range", idx)
			}
		}
	}
}

func TestAdsBaseRateCalibration(t *testing.T) {
	g, err := NewAdsGenerator(DefaultAdsConfig(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ds := Pool(g, 300)
	ratio := ds.LabelRatio()
	if ratio < 0.18 || ratio > 0.40 {
		t.Fatalf("ads label ratio %v too far from target 0.28", ratio)
	}
}

func TestAdsConfigValidation(t *testing.T) {
	bad := []AdsConfig{
		{Clients: 0, DenseDim: 4, SparseDim: 4, ActiveLo: 1, ActiveHi: 2, BaseRate: 0.2, Quantity: AdsQuantity},
		{Clients: 10, DenseDim: 0, SparseDim: 4, ActiveLo: 1, ActiveHi: 2, BaseRate: 0.2, Quantity: AdsQuantity},
		{Clients: 10, DenseDim: 4, SparseDim: 4, ActiveLo: 3, ActiveHi: 2, BaseRate: 0.2, Quantity: AdsQuantity},
		{Clients: 10, DenseDim: 4, SparseDim: 4, ActiveLo: 1, ActiveHi: 2, BaseRate: 1.5, Quantity: AdsQuantity},
	}
	for i, cfg := range bad {
		if _, err := NewAdsGenerator(cfg); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestMessagingGenerator(t *testing.T) {
	cfg := DefaultMessagingConfig(100, 5)
	cfg.Tasks = 3
	g, err := NewMessagingGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shard := g.GenerateClient(3)
	if len(shard.Examples) == 0 {
		t.Fatal("empty shard")
	}
	for _, ex := range shard.Examples {
		if len(ex.Tokens) < cfg.SeqLo || len(ex.Tokens) > cfg.SeqHi {
			t.Fatalf("sequence length %d outside [%d,%d]", len(ex.Tokens), cfg.SeqLo, cfg.SeqHi)
		}
		for _, tok := range ex.Tokens {
			if tok < 0 || tok >= cfg.Vocab {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
		if len(ex.Tasks) != 3 {
			t.Fatalf("tasks len %d", len(ex.Tasks))
		}
		if ex.Tasks[0] != ex.Label {
			t.Fatal("primary task must mirror Label")
		}
	}
	// Label rarity: spam base rate is low.
	ds := Pool(g, 60)
	if r := ds.LabelRatio(); r > 0.25 {
		t.Fatalf("messaging label ratio %v should be rare-ish", r)
	}
}

func TestMessagingValidation(t *testing.T) {
	cfg := DefaultMessagingConfig(10, 1)
	cfg.Vocab = 10
	if _, err := NewMessagingGenerator(cfg); err == nil {
		t.Fatal("tiny vocab should fail")
	}
	cfg = DefaultMessagingConfig(10, 1)
	cfg.SeqLo = 0
	if _, err := NewMessagingGenerator(cfg); err == nil {
		t.Fatal("zero sequence length should fail")
	}
}

func TestSearchGenerator(t *testing.T) {
	g, err := NewSearchGenerator(DefaultSearchConfig(50, 7))
	if err != nil {
		t.Fatal(err)
	}
	shard := g.GenerateClient(11)
	if len(shard.Examples) == 0 {
		t.Fatal("empty shard")
	}
	groups := (&Dataset{Examples: shard.Examples}).ByQuery()
	for qid, docs := range groups {
		if qid == 0 {
			t.Fatal("QueryID must be non-zero")
		}
		if len(docs) < 4 || len(docs) > 12 {
			t.Fatalf("group size %d outside [4,12]", len(docs))
		}
		// Clicked groups carry exactly one clicked document; unclicked
		// groups are all-zero.
		clicks := 0
		for _, d := range docs {
			if d.Relevance < 0 || d.Relevance > 3 {
				t.Fatalf("relevance %v outside 0..3", d.Relevance)
			}
			if (d.Relevance >= 2) != (d.Label == 1) {
				t.Fatalf("click label %v inconsistent with relevance %v", d.Label, d.Relevance)
			}
			if d.Label == 1 {
				clicks++
			}
		}
		if clicks > 1 {
			t.Fatalf("group has %d clicked documents, want at most 1", clicks)
		}
	}
	// Record-level click ratio must be rare, near Dataset C's 0.06.
	pool := Pool(g, 50)
	if r := pool.LabelRatio(); r < 0.02 || r > 0.12 {
		t.Fatalf("search label ratio %v far from paper's 0.06", r)
	}
}

func TestTestSetsDisjointFromTraining(t *testing.T) {
	g, err := NewAdsGenerator(DefaultAdsConfig(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	ts := g.TestSet(50)
	if ts.Len() != 50 {
		t.Fatalf("test set size %d", ts.Len())
	}
	for _, ex := range ts.Examples {
		if ex.ClientID < 10 {
			t.Fatal("test set must come from held-out client ids")
		}
	}
}

func TestDummy(t *testing.T) {
	spec := InputSpec{DenseDim: 8, SparseDim: 100, ActiveLo: 3, ActiveHi: 5, Vocab: 50, SeqLo: 2, SeqHi: 4, Tasks: 3}
	ds, err := Dummy(spec, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 20 {
		t.Fatalf("dummy size %d", ds.Len())
	}
	for _, ex := range ds.Examples {
		if len(ex.Dense) != 8 {
			t.Fatal("dense dim")
		}
		if len(ex.Sparse) < 3 || len(ex.Sparse) > 5 {
			t.Fatalf("active %d", len(ex.Sparse))
		}
		if len(ex.Tokens) < 2 || len(ex.Tokens) > 4 {
			t.Fatalf("tokens %d", len(ex.Tokens))
		}
		if len(ex.Tasks) != 3 {
			t.Fatal("tasks")
		}
	}
	if _, err := Dummy(spec, -1, 1); err == nil {
		t.Fatal("negative n must error")
	}
}

func TestPoolMatchesClientUnion(t *testing.T) {
	g, err := NewAdsGenerator(DefaultAdsConfig(20, 9))
	if err != nil {
		t.Fatal(err)
	}
	pooled := Pool(g, 5)
	var total int
	for id := int64(0); id < 5; id++ {
		total += len(g.GenerateClient(id).Examples)
	}
	if pooled.Len() != total {
		t.Fatalf("pool size %d != union %d", pooled.Len(), total)
	}
}
