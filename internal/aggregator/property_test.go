package aggregator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flint/internal/tensor"
)

// TestFedAvgConvexCombination: the FedAvg step is a convex combination of
// the deltas, so every coordinate of the applied update must lie within the
// per-coordinate [min, max] of the client deltas.
func TestFedAvgConvexCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(8)
		n := 1 + rng.Intn(6)
		updates := make([]Update, n)
		for i := range updates {
			d := tensor.NewVector(dim)
			for j := range d {
				d[j] = rng.NormFloat64() * 3
			}
			updates[i] = Update{ClientID: int64(i), Delta: d, Weight: rng.Float64() + 0.1}
		}
		global := tensor.NewVector(dim)
		if err := (FedAvg{}).Aggregate(global, updates); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < dim; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range updates {
				if u.Delta[j] < lo {
					lo = u.Delta[j]
				}
				if u.Delta[j] > hi {
					hi = u.Delta[j]
				}
			}
			if global[j] < lo-1e-9 || global[j] > hi+1e-9 {
				t.Fatalf("coordinate %d: %v outside [%v, %v]", j, global[j], lo, hi)
			}
		}
	}
}

// TestFedBuffZeroAlphaEqualsUniformMean: with no discount and ServerLR 1,
// FedBuff reduces to the plain mean regardless of staleness values.
func TestFedBuffZeroAlphaEqualsUniformMean(t *testing.T) {
	f := func(vals []float64, staleSeed int64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		rng := rand.New(rand.NewSource(staleSeed))
		updates := make([]Update, len(vals))
		var mean float64
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 1e6)
			updates[i] = Update{ClientID: int64(i), Delta: tensor.Vector{v}, Staleness: rng.Intn(20)}
			mean += v
		}
		mean /= float64(len(vals))
		global := tensor.Vector{0}
		if err := (FedBuff{ServerLR: 1, Alpha: 0}).Aggregate(global, updates); err != nil {
			return false
		}
		return math.Abs(global[0]-mean) <= 1e-9*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedMeanBoundedByHonestRange: with at most k poisoned updates and
// trim fraction covering them, the trimmed mean stays within the honest
// updates' range.
func TestTrimmedMeanBoundedByHonestRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		honest := 8
		updates := make([]Update, 0, honest+2)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < honest; i++ {
			v := rng.NormFloat64()
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			updates = append(updates, Update{ClientID: int64(i), Delta: tensor.Vector{v}})
		}
		// Two extreme poisoned values on each side.
		updates = append(updates,
			Update{ClientID: 100, Delta: tensor.Vector{1e6}},
			Update{ClientID: 101, Delta: tensor.Vector{-1e6}})
		global := tensor.Vector{0}
		if err := (TrimmedMean{TrimFrac: 0.2}).Aggregate(global, updates); err != nil {
			t.Fatal(err)
		}
		if global[0] < lo-1e-9 || global[0] > hi+1e-9 {
			t.Fatalf("trimmed mean %v escaped honest range [%v, %v]", global[0], lo, hi)
		}
	}
}

// TestDPNoiseScalesInverselyWithBatch: averaging over more updates shrinks
// the injected noise per the central Gaussian mechanism (std σ·C/n).
func TestDPNoiseScalesInverselyWithBatch(t *testing.T) {
	noiseMag := func(n int) float64 {
		dp := NewDP(DPConfig{Epsilon: 4.8, Delta: 1e-5, ClipNorm: 1, Seed: 5})
		// A zero round delta isolates the noise (nothing to clip).
		published := tensor.NewVector(1000)
		var total float64
		for version := 2; version < 7; version++ {
			params := tensor.NewVector(1000)
			dp.Apply(params, published, version, n)
			total += params.Norm2()
		}
		return total / 5
	}
	small := noiseMag(2)
	big := noiseMag(64)
	if big >= small {
		t.Fatalf("noise must shrink with batch size: n=2 %v, n=64 %v", small, big)
	}
}
