package aggregator

import (
	"math"
	"math/rand"
	"testing"

	"flint/internal/tensor"
)

func upd(id int64, w float64, vals ...float64) Update {
	return Update{ClientID: id, Weight: w, Delta: tensor.Vector(vals)}
}

func TestFedAvgWeighted(t *testing.T) {
	global := tensor.Vector{0, 0}
	err := FedAvg{}.Aggregate(global, []Update{
		upd(1, 1, 2, 0),
		upd(2, 3, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	// (1*[2,0] + 3*[0,4]) / 4 = [0.5, 3].
	if math.Abs(global[0]-0.5) > 1e-12 || math.Abs(global[1]-3) > 1e-12 {
		t.Fatalf("fedavg: %v", global)
	}
}

func TestFedAvgDefaultsWeight(t *testing.T) {
	global := tensor.Vector{0}
	err := FedAvg{}.Aggregate(global, []Update{upd(1, 0, 4), upd(2, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(global[0]-3) > 1e-12 {
		t.Fatalf("unweighted mean: %v", global[0])
	}
}

func TestFedAvgErrors(t *testing.T) {
	if err := (FedAvg{}).Aggregate(tensor.Vector{0}, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	if err := (FedAvg{}).Aggregate(tensor.Vector{0}, []Update{upd(1, 1, 1, 2)}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestFedBuffStalenessDiscount(t *testing.T) {
	f := FedBuff{ServerLR: 1, Alpha: 0.5}
	if w := f.StalenessWeight(0); w != 1 {
		t.Fatalf("fresh weight %v", w)
	}
	if w := f.StalenessWeight(3); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("staleness-3 weight %v, want 0.5", w)
	}
	if f.StalenessWeight(-1) != 1 {
		t.Fatal("negative staleness clamps to 0")
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for tau := 0; tau < 10; tau++ {
		w := f.StalenessWeight(tau)
		if w > prev {
			t.Fatal("staleness weight must decrease")
		}
		prev = w
	}
}

func TestFedBuffAggregate(t *testing.T) {
	global := tensor.Vector{0}
	f := FedBuff{ServerLR: 1, Alpha: 0} // no discount
	err := f.Aggregate(global, []Update{upd(1, 1, 2), upd(2, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(global[0]-3) > 1e-12 {
		t.Fatalf("fedbuff mean: %v", global[0])
	}
	// With discounting, a stale update contributes less.
	g2 := tensor.Vector{0}
	f2 := FedBuff{ServerLR: 1, Alpha: 1}
	stale := Update{ClientID: 3, Delta: tensor.Vector{4}, Staleness: 3}
	if err := f2.Aggregate(g2, []Update{upd(1, 1, 2), stale}); err != nil {
		t.Fatal(err)
	}
	if g2[0] >= 3 {
		t.Fatalf("stale update not discounted: %v", g2[0])
	}
	if err := f.Aggregate(global, nil); err == nil {
		t.Fatal("empty buffer must error")
	}
}

func TestTrimmedMeanDropsOutlier(t *testing.T) {
	global := tensor.Vector{0}
	honest := []Update{upd(1, 1, 1), upd(2, 1, 1.2), upd(3, 1, 0.8), upd(4, 1, 1.1)}
	poisoned := append(append([]Update{}, honest...), upd(5, 1, -100))
	if err := (TrimmedMean{TrimFrac: 0.2}).Aggregate(global, poisoned); err != nil {
		t.Fatal(err)
	}
	if global[0] < 0.5 || global[0] > 1.5 {
		t.Fatalf("trimmed mean %v should resist the -100 outlier", global[0])
	}
	if err := (TrimmedMean{TrimFrac: 0.6}).Aggregate(global, honest); err == nil {
		t.Fatal("trim fraction >= 0.5 must error")
	}
	if err := (TrimmedMean{}).Aggregate(global, nil); err == nil {
		t.Fatal("empty batch must error")
	}
}

// TestDPClipsAndNoises: the stage clips the aggregate round delta to the
// clip norm, noises it, and never touches the published base.
func TestDPClipsAndNoises(t *testing.T) {
	published := tensor.NewVector(2)
	big := upd(1, 1, 300, 400)
	aggregate := func(cfg DPConfig) (tensor.Vector, float64, bool) {
		t.Helper()
		params := published.Clone()
		if err := (FedAvg{}).Aggregate(params, []Update{big}); err != nil {
			t.Fatal(err)
		}
		eps, noised := NewDP(cfg).Apply(params, published, 2, 1)
		return params, eps, noised
	}
	// ε = 48 at δ = 1e-5 is σ ≈ 0.1: the aggregate stays near the clipped
	// direction (norm ≈ 1) with noise std 0.1.
	got, eps, noised := aggregate(DPConfig{Epsilon: 48, Delta: 1e-5, ClipNorm: 1, Seed: 4})
	if n := got.Norm2(); n > 1.6 || n < 0.4 {
		t.Fatalf("DP aggregate norm %v far from clip norm 1", n)
	}
	if !noised || eps <= 0 {
		t.Fatalf("noised round: noised=%v eps=%v", noised, eps)
	}
	if big.Delta[0] != 300 || published.Norm2() != 0 {
		t.Fatal("DP must not mutate the updates or the published base")
	}
	// Clip only: deterministic, spends no budget.
	got, eps, noised = aggregate(DPConfig{ClipNorm: 1})
	if math.Abs(got.Norm2()-1) > 1e-9 {
		t.Fatalf("clip-only norm %v", got.Norm2())
	}
	if noised || eps != 0 {
		t.Fatalf("clip-only round: noised=%v eps=%v", noised, eps)
	}
}

func TestDPValidation(t *testing.T) {
	for _, bad := range []DPConfig{
		{Epsilon: -1},
		{ClipNorm: -2},
		{Epsilon: 8, Delta: 1.5},
		{ClipNorm: 1, Delta: -1},
	} {
		if _, err := bad.WithDefaults(1); err == nil {
			t.Fatalf("%+v must fail", bad)
		}
	}
	got, err := DPConfig{Epsilon: 8}.WithDefaults(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != 1e-5 || got.ClipNorm != 1 || got.Seed != 7 {
		t.Fatalf("dp defaults: %+v", got)
	}
	if off, err := (DPConfig{Delta: 3}).WithDefaults(7); err != nil || off != (DPConfig{Delta: 3}) {
		t.Fatalf("a disabled config is left alone: %+v, %v", off, err)
	}
	if NewDP(DPConfig{}) != nil {
		t.Fatal("a disabled config builds no stage")
	}
}

// TestDPApplyMatchesSeparatePasses pins the fused clip+noise pass to the
// three-pass definition it replaced (norm, then clip the whole vector,
// then noise the whole vector): bit-identical params and the same noise
// stream in every mode — clip and noise, noise only (delta under the
// cap), clip only, and neither.
func TestDPApplyMatchesSeparatePasses(t *testing.T) {
	const dim, version, n = 1000, 7, 13
	rng := rand.New(rand.NewSource(3))
	published := tensor.NewVector(dim)
	delta := tensor.NewVector(dim)
	for i := range published {
		published[i] = rng.NormFloat64()
		delta[i] = rng.NormFloat64() * 0.01 // norm ≈ 0.32
	}
	for _, cfg := range []DPConfig{
		{Epsilon: 8, Delta: 1e-5, ClipNorm: 0.05, Seed: 77},
		{Epsilon: 8, Delta: 1e-5, ClipNorm: 5, Seed: 77},
		{ClipNorm: 0.05},
		{ClipNorm: 5},
	} {
		d := NewDP(cfg)
		want := published.Clone()
		want.Add(delta)
		got := want.Clone()

		var s float64
		for i := range want {
			diff := want[i] - published[i]
			s += diff * diff
		}
		if norm := math.Sqrt(s); norm > cfg.ClipNorm {
			factor := cfg.ClipNorm / norm
			for i := range want {
				want[i] = published[i] + (want[i]-published[i])*factor
			}
		}
		if d.sigma != 0 {
			std := d.sigma * cfg.ClipNorm / n
			noise := rand.New(rand.NewSource(cfg.Seed + version*1_000_003))
			for i := range want {
				want[i] += noise.NormFloat64() * std
			}
		}

		eps, noised := d.Apply(got, published, version, n)
		if noised != (cfg.Epsilon > 0) || (eps > 0) != noised {
			t.Fatalf("%+v: noised=%v eps=%v", cfg, noised, eps)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: params[%d] = %v, separate passes give %v", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestEpsilonApprox(t *testing.T) {
	e1, err := EpsilonApprox(1, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EpsilonApprox(1, 400, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatal("epsilon must grow with rounds")
	}
	if math.Abs(e2/e1-2) > 1e-9 {
		t.Fatalf("sqrt composition: e2/e1 = %v, want 2", e2/e1)
	}
	if e, _ := EpsilonApprox(0, 10, 1e-6); !math.IsInf(e, 1) {
		t.Fatal("zero noise must yield infinite epsilon")
	}
	if _, err := EpsilonApprox(1, 0, 1e-6); err == nil {
		t.Fatal("zero rounds must error")
	}
	if _, err := EpsilonApprox(1, 10, 2); err == nil {
		t.Fatal("bad delta must error")
	}
	// The stage's σ inverts the per-round bound: one noised round spends
	// exactly the configured ε.
	d := NewDP(DPConfig{Epsilon: 8, Delta: 1e-5, ClipNorm: 1})
	if e, _ := EpsilonApprox(d.sigma, 1, 1e-5); math.Abs(e-8) > 1e-12 {
		t.Fatalf("one round at σ(ε=8) spends %v", e)
	}
}

// TestAggregationConfigReducer: one constructor picks every reducer the
// server and the simulator run, after the range checks and defaults.
func TestAggregationConfigReducer(t *testing.T) {
	buff := FedBuff{ServerLR: 0.5, Alpha: 1}
	for _, tc := range []struct {
		cfg   AggregationConfig
		async bool
		want  Strategy
	}{
		{AggregationConfig{}, false, FedAvg{}},
		{AggregationConfig{}, true, buff},
		{AggregationConfig{Strategy: "fedavg"}, false, FedAvg{}},
		{AggregationConfig{Strategy: "fedbuff"}, true, buff},
		{AggregationConfig{Strategy: "trimmed-mean"}, false, TrimmedMean{TrimFrac: 0.1}},
		{AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.25}, true, TrimmedMean{TrimFrac: 0.25}},
		{AggregationConfig{Strategy: "coordinate-median"}, false, CoordinateMedian{}},
	} {
		cfg, err := tc.cfg.WithDefaults(tc.async)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if got := cfg.Reducer(tc.async, buff); got != tc.want {
			t.Fatalf("%+v async=%v: reducer %#v, want %#v", tc.cfg, tc.async, got, tc.want)
		}
	}
	for _, bad := range []struct {
		cfg   AggregationConfig
		async bool
	}{
		{AggregationConfig{Strategy: "krum"}, false},
		{AggregationConfig{Strategy: "fedavg"}, true},
		{AggregationConfig{Strategy: "fedbuff"}, false},
		{AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.5}, false},
		{AggregationConfig{TrimFrac: 0.1}, false},
		{AggregationConfig{ScreenMaxNorm: -1}, false},
		{AggregationConfig{ScreenMedianFactor: 0.5}, false},
	} {
		if _, err := bad.cfg.WithDefaults(bad.async); err == nil {
			t.Fatalf("%+v async=%v must fail", bad.cfg, bad.async)
		}
	}
	screen := AggregationConfig{ScreenMaxNorm: 3, ScreenMedianFactor: 4}.Screen()
	if screen != (NormScreen{MaxNorm: 3, MedianFactor: 4}) {
		t.Fatalf("screen %+v", screen)
	}
}

func TestThroughput(t *testing.T) {
	// §3.5: 610k tasks over 48h with 0.76 MB updates → 3.53 upd/s, 2.68 MB/s.
	th, err := Throughput(610_000, 760_000, 48*3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th.UpdatesPerSec-3.53) > 0.05 {
		t.Fatalf("updates/s %v, paper projects 3.53", th.UpdatesPerSec)
	}
	if math.Abs(th.BytesPerSec/1e6-2.68) > 0.05 {
		t.Fatalf("MB/s %v, paper projects 2.68", th.BytesPerSec/1e6)
	}
	if _, err := Throughput(1, 1, 0); err == nil {
		t.Fatal("zero duration must error")
	}
}

func TestAdversarySignFlip(t *testing.T) {
	adv := Adversary{Attack: SignFlip{Scale: 2}, Fraction: 1, Seed: 5}
	updates := []Update{upd(1, 1, 3)}
	out, n, err := adv.Apply(updates)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("poisoned %d", n)
	}
	if out[0].Delta[0] != -6 {
		t.Fatalf("sign flip: %v", out[0].Delta[0])
	}
	if updates[0].Delta[0] != 3 {
		t.Fatal("input mutated")
	}
}

func TestAdversaryFractionStable(t *testing.T) {
	adv := Adversary{Attack: SignFlip{Scale: 1}, Fraction: 0.3, Seed: 9}
	comp := 0
	const n = 5000
	for id := int64(0); id < n; id++ {
		a := adv.Compromised(id)
		b := adv.Compromised(id)
		if a != b {
			t.Fatal("compromise decision must be stable per client")
		}
		if a {
			comp++
		}
	}
	frac := float64(comp) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("compromised fraction %v far from 0.3", frac)
	}
}

func TestAdversaryValidation(t *testing.T) {
	if _, _, err := (Adversary{Fraction: 0.5}).Apply(nil); err == nil {
		t.Fatal("missing attack must fail")
	}
	if _, _, err := (Adversary{Attack: SignFlip{}, Fraction: 2}).Apply(nil); err == nil {
		t.Fatal("bad fraction must fail")
	}
}
