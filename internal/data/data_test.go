package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestDatasetBasics(t *testing.T) {
	ds := &Dataset{Examples: []*Example{
		{QueryID: 1, Label: 1},
		{QueryID: 1, Label: 0},
		{QueryID: 2, Label: 1},
	}}
	if ds.Len() != 3 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if got := ds.LabelRatio(); got != 2.0/3 {
		t.Fatalf("LabelRatio = %v", got)
	}
	groups := ds.ByQuery()
	if len(groups) != 2 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("ByQuery = %v", groups)
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary([]string{"a", "b", "a"})
	if v.Size() != 3 { // oov + a + b
		t.Fatalf("Size = %d", v.Size())
	}
	// Re-adding a known word returns its first-seen id.
	if a, b := v.Add("a"), v.Add("b"); a != 1 || b != 2 || v.Size() != 3 {
		t.Fatalf("ids: a=%d b=%d size=%d", a, b, v.Size())
	}
	if id := v.Add("c"); id != 3 {
		t.Fatalf("new word id %d, want 3", id)
	}
	// "<oov>" + a + b + c, each string plus a 4-byte id.
	if got := v.SizeBytes(); got != 5+4+3*(1+4) {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestCollisionRate(t *testing.T) {
	// Many features into few buckets → high collisions; reverse → low.
	high := CollisionRate(10000, 100)
	low := CollisionRate(100, 100000)
	if high < 0.9 {
		t.Fatalf("high collision rate = %v", high)
	}
	if low > 0.01 {
		t.Fatalf("low collision rate = %v", low)
	}
	if CollisionRate(0, 10) != 0 || CollisionRate(10, 0) != 0 {
		t.Fatal("degenerate inputs must be 0")
	}
}

func TestQuantityModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := QuantityModel{Mu: 2, Sigma: 1, Min: 1, Cap: 100}
	for i := 0; i < 1000; i++ {
		n := q.Sample(rng)
		if n < 1 || n > 100 {
			t.Fatalf("quantity %d outside [1,100]", n)
		}
	}
	if err := (QuantityModel{Sigma: -1}).Validate(); err == nil {
		t.Fatal("negative sigma must fail validation")
	}
	if err := (QuantityModel{Min: 5, Cap: 2}).Validate(); err == nil {
		t.Fatal("cap below min must fail validation")
	}
}

func TestQuantityCalibrationShapes(t *testing.T) {
	// The three Table-2 models must reproduce the paper's heavy-tail
	// ordering: ads has std >> mean, search has mean ≈ 1.5.
	rng := rand.New(rand.NewSource(2))
	sampleMeanStd := func(q QuantityModel, n int) (mean, std float64) {
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := float64(q.Sample(rng))
			sum += x
			sq += x * x
		}
		mean = sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if variance < 0 {
			variance = 0
		}
		return mean, math.Sqrt(variance)
	}
	adsMean, adsStd := sampleMeanStd(AdsQuantity, 200000)
	if adsMean < 50 || adsMean > 200 {
		t.Fatalf("ads mean %v far from paper's 99", adsMean)
	}
	if adsStd < 2*adsMean {
		t.Fatalf("ads std %v must be heavy-tailed (mean %v)", adsStd, adsMean)
	}
	searchMean, _ := sampleMeanStd(SearchQuantity, 100000)
	if searchMean < 1.2 || searchMean > 2.2 {
		t.Fatalf("search mean %v far from paper's 1.53", searchMean)
	}
	msgMean, _ := sampleMeanStd(MessagingQuantity, 100000)
	if msgMean < 100 || msgMean > 320 {
		t.Fatalf("messaging mean %v far from paper's 184", msgMean)
	}
}
