package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAUPRPerfectRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	got, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect ranking AUPR = %v, want 1", got)
	}
}

func TestAUPRWorstRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{false, false, true, true}
	got, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Positives found at ranks 3 and 4: AP = (1/3 + 2/4)/2.
	want := (1.0/3 + 2.0/4) / 2
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("worst ranking AUPR = %v, want %v", got, want)
	}
}

func TestAUPRNoPositives(t *testing.T) {
	if _, err := AUPR([]float64{0.1}, []bool{false}); err == nil {
		t.Fatal("expected error with no positives")
	}
}

func TestAUPRMismatchedLens(t *testing.T) {
	if _, err := AUPR([]float64{0.1, 0.2}, []bool{true}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestAUPRTiesOrderIndependent(t *testing.T) {
	// With all scores tied, AUPR must equal the base rate regardless of
	// input order.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	l1 := []bool{true, false, true, false}
	l2 := []bool{false, false, true, true}
	a1, err := AUPR(scores, l1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AUPR(scores, l2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a1, a2, 1e-12) {
		t.Fatalf("tie handling is order-dependent: %v vs %v", a1, a2)
	}
	if !almostEqual(a1, 0.5, 1e-12) {
		t.Fatalf("all-tied AUPR should equal base rate 0.5, got %v", a1)
	}
}

func TestAUPRRandomScoresNearBaseRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	baseRate := 0.3
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < baseRate
	}
	got, err := AUPR(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-baseRate) > 0.03 {
		t.Fatalf("random-score AUPR = %v, want ≈ base rate %v", got, baseRate)
	}
}

func TestNDCG(t *testing.T) {
	// Ideal order → 1.
	if got := NDCG([]float64{3, 2, 1, 0}, 0); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("ideal NDCG = %v", got)
	}
	// Non-ideal order strictly less than 1.
	if got := NDCG([]float64{0, 1, 2, 3}, 0); got >= 1 {
		t.Fatalf("inverted NDCG = %v, want < 1", got)
	}
	// All-zero relevance → 0.
	if got := NDCG([]float64{0, 0}, 0); got != 0 {
		t.Fatalf("zero-relevance NDCG = %v", got)
	}
	// k truncation: only first k items matter for DCG.
	full := NDCG([]float64{3, 0, 0, 0}, 1)
	if !almostEqual(full, 1, 1e-12) {
		t.Fatalf("NDCG@1 with best doc first = %v", full)
	}
}

func TestNDCGBoundsProperty(t *testing.T) {
	f := func(rels []float64) bool {
		for i, r := range rels {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return true
			}
			rels[i] = math.Mod(math.Abs(r), 5)
		}
		g := NDCG(rels, 0)
		return g >= 0 && g <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
	zero := Summarize(nil)
	if zero.Count != 0 {
		t.Fatalf("empty summary: %+v", zero)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Quantile(sorted, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(sorted, 0.5); got != 25 {
		t.Fatalf("q0.5 = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("histogram shape: %d edges %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram loses mass: %d", total)
	}
	// Degenerate range.
	_, counts = Histogram([]float64{5, 5, 5}, 4)
	if counts[0] != 3 {
		t.Fatalf("degenerate histogram: %v", counts)
	}
	// Empty input.
	_, counts = Histogram(nil, 3)
	for _, c := range counts {
		if c != 0 {
			t.Fatal("empty histogram must have zero counts")
		}
	}
}

func TestMedianOf(t *testing.T) {
	if got := MedianOf([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
}
