package partition

import (
	"math"
	"path/filepath"
	"testing"

	"flint/internal/data"
)

func adsShards(t *testing.T, clients int) []data.ClientShard {
	t.Helper()
	g, err := data.NewAdsGenerator(data.DefaultAdsConfig(clients, 17))
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateClients(clients)
}

func TestComputeStats(t *testing.T) {
	shards := []data.ClientShard{
		{ClientID: 1, Examples: []*data.Example{{Label: 1}, {Label: 0}}},
		{ClientID: 2, Examples: []*data.Example{{Label: 0}, {Label: 0}, {Label: 0}, {Label: 0}}},
	}
	s := ComputeStats("test", shards, 30)
	if s.ClientPop != 2 || s.MaxRecords != 4 || s.AvgRecords != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if math.Abs(s.LabelRatio-1.0/6) > 1e-12 {
		t.Fatalf("label ratio %v", s.LabelRatio)
	}
	if s.LookbackDays != 30 {
		t.Fatalf("lookback %d", s.LookbackDays)
	}
	if s.String() == "" {
		t.Fatal("stats must print")
	}
}

func TestQuantityStatsFullScaleShape(t *testing.T) {
	// Dataset C at meaningful scale: mean must land near the paper's 1.53
	// and max far below the messaging/ads maxima.
	s, err := QuantityStats("datasetC", data.SearchQuantity, 500000, 0.06, 61, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgRecords < 1.2 || s.AvgRecords > 2.2 {
		t.Fatalf("search avg %v far from 1.53", s.AvgRecords)
	}
	if s.MaxRecords > 406 {
		t.Fatalf("search max %d exceeds cap", s.MaxRecords)
	}
	if _, err := QuantityStats("x", data.SearchQuantity, 0, 0, 0, 1); err == nil {
		t.Fatal("zero clients must error")
	}
}

func TestRoundRobin(t *testing.T) {
	shards := adsShards(t, 23)
	parts, err := RoundRobin(shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("%d partitions", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.NumClients()
		if p.NumRecords() <= 0 {
			t.Fatal("empty partition")
		}
	}
	if total != 23 {
		t.Fatalf("clients lost: %d", total)
	}
	// Balance: max-min client count across executors must be <= 1.
	lo, hi := parts[0].NumClients(), parts[0].NumClients()
	for _, p := range parts {
		if p.NumClients() < lo {
			lo = p.NumClients()
		}
		if p.NumClients() > hi {
			hi = p.NumClients()
		}
	}
	if hi-lo > 1 {
		t.Fatalf("imbalanced: %d..%d", lo, hi)
	}
	if _, err := RoundRobin(shards, 0); err == nil {
		t.Fatal("zero executors must fail")
	}
}

func TestPartitionFileRoundTrip(t *testing.T) {
	shards := adsShards(t, 6)
	parts, err := RoundRobin(shards, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := WriteAll(parts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("%d paths", len(paths))
	}
	got, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClients() != parts[0].NumClients() || got.NumRecords() != parts[0].NumRecords() {
		t.Fatalf("round-trip mismatch: %d/%d vs %d/%d",
			got.NumClients(), got.NumRecords(), parts[0].NumClients(), parts[0].NumRecords())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.gob")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestTable2StatsFromAdsGenerator(t *testing.T) {
	// End-to-end: generate per-client shards, compute stats — the
	// pipeline behind Table 2's Dataset A column (down-scaled).
	stats := ComputeStats("datasetA", adsShards(t, 400), 90)
	if stats.ClientPop != 400 {
		t.Fatalf("pop %d", stats.ClientPop)
	}
	if stats.StdRecords < stats.AvgRecords {
		t.Fatalf("ads quantity must be heavy-tailed: avg %.1f std %.1f", stats.AvgRecords, stats.StdRecords)
	}
	if stats.LabelRatio < 0.15 || stats.LabelRatio > 0.45 {
		t.Fatalf("label ratio %v far from 0.28", stats.LabelRatio)
	}
}
