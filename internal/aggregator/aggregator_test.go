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

func TestDPClipsAndNoises(t *testing.T) {
	cfg := DPConfig{ClipNorm: 1, NoiseMultiplier: 0.1, Seed: 4}
	dp, err := NewDP(cfg, FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	global := tensor.NewVector(2)
	big := upd(1, 1, 300, 400)
	if err := dp.Aggregate(global, []Update{big}); err != nil {
		t.Fatal(err)
	}
	// Aggregate must be near the clipped direction (norm ≈ 1), noise std 0.1.
	if n := global.Norm2(); n > 1.6 || n < 0.4 {
		t.Fatalf("DP aggregate norm %v far from clip norm 1", n)
	}
	if big.Delta[0] != 300 {
		t.Fatal("DP must not mutate inputs")
	}
	// Zero noise multiplier: deterministic clip-only behaviour.
	dp0, err := NewDP(DPConfig{ClipNorm: 1, NoiseMultiplier: 0, Seed: 1}, FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	g0 := tensor.NewVector(2)
	if err := dp0.Aggregate(g0, []Update{big}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g0.Norm2()-1) > 1e-9 {
		t.Fatalf("clip-only norm %v", g0.Norm2())
	}
}

func TestDPValidation(t *testing.T) {
	if _, err := NewDP(DPConfig{ClipNorm: 0}, FedAvg{}); err == nil {
		t.Fatal("zero clip must fail")
	}
	if _, err := NewDP(DPConfig{ClipNorm: 1, NoiseMultiplier: -1}, FedAvg{}); err == nil {
		t.Fatal("negative noise must fail")
	}
	if _, err := NewDP(DPConfig{ClipNorm: 1}, nil); err == nil {
		t.Fatal("nil inner must fail")
	}
}

func TestEpsilonApprox(t *testing.T) {
	cfg := DPConfig{ClipNorm: 1, NoiseMultiplier: 1}
	e1, err := cfg.EpsilonApprox(100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cfg.EpsilonApprox(400, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatal("epsilon must grow with rounds")
	}
	if math.Abs(e2/e1-2) > 1e-9 {
		t.Fatalf("sqrt composition: e2/e1 = %v, want 2", e2/e1)
	}
	noNoise := DPConfig{ClipNorm: 1, NoiseMultiplier: 0}
	if e, _ := noNoise.EpsilonApprox(10, 1e-6); !math.IsInf(e, 1) {
		t.Fatal("zero noise must yield infinite epsilon")
	}
	if _, err := cfg.EpsilonApprox(0, 1e-6); err == nil {
		t.Fatal("zero rounds must error")
	}
	if _, err := cfg.EpsilonApprox(10, 2); err == nil {
		t.Fatal("bad delta must error")
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
	adv := Adversary{Attack: RandomNoise{Std: 1}, Fraction: 0.3, Seed: 9}
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

func TestRandomNoisePoison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := upd(1, 1, 0, 0, 0)
	out := RandomNoise{Std: 5}.Poison(u, rng)
	if out.Delta.Norm2() == 0 {
		t.Fatal("noise attack produced zero delta")
	}
	if u.Delta.Norm2() != 0 {
		t.Fatal("input mutated")
	}
}
