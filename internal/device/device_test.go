package device

import (
	"math/rand"
	"testing"

	"flint/internal/model"
)

func TestBenchPoolShape(t *testing.T) {
	pool := BenchPool()
	if len(pool) != 27 {
		t.Fatalf("pool size %d, paper uses 27 devices", len(pool))
	}
	var ios, android int
	var share float64
	names := make(map[string]bool)
	for _, p := range pool {
		if names[p.Name] {
			t.Fatalf("duplicate device %s", p.Name)
		}
		names[p.Name] = true
		switch p.Platform {
		case IOS:
			ios++
		case Android:
			android++
		default:
			t.Fatalf("unknown platform %q", p.Platform)
		}
		if p.MatmulGFLOPS <= 0 || p.GatherGFLOPS <= 0 || p.PrepMicros <= 0 || p.Cores <= 0 {
			t.Fatalf("device %s has non-positive capability", p.Name)
		}
		if p.ModernOSProb < 0 || p.ModernOSProb > 1 {
			t.Fatalf("device %s ModernOSProb %v", p.Name, p.ModernOSProb)
		}
		share += p.Share
	}
	if ios < 5 || android < 15 {
		t.Fatalf("platform mix %d iOS / %d Android unlike Fig 1", ios, android)
	}
	if share >= 1 {
		t.Fatalf("pool share %v must leave room for the tail", share)
	}
	if len(ByName(pool)) != 27 {
		t.Fatal("ByName lost devices")
	}
}

func TestHeterogeneitySpread(t *testing.T) {
	// Fastest/slowest spread must be >5x — the heterogeneity Table 5's
	// large stdevs come from.
	pool := BenchPool()
	lo, hi := pool[0].MatmulGFLOPS, pool[0].MatmulGFLOPS
	for _, p := range pool {
		if p.MatmulGFLOPS < lo {
			lo = p.MatmulGFLOPS
		}
		if p.MatmulGFLOPS > hi {
			hi = p.MatmulGFLOPS
		}
	}
	if hi/lo < 5 {
		t.Fatalf("compute spread %.1fx too narrow", hi/lo)
	}
}

func TestRunBenchmark(t *testing.T) {
	pool := BenchPool()
	r, err := Run(model.KindB, pool[0], 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainSeconds <= 0 || r.SecPerRecord <= 0 {
		t.Fatalf("non-positive time: %+v", r)
	}
	if r.ValidatedRecords <= 0 || r.ValidatedRecords > 128 {
		t.Fatalf("validation steps %d", r.ValidatedRecords)
	}
	if r.CPUPercent <= 0 || r.CPUPercent > 100 {
		t.Fatalf("cpu%% %v", r.CPUPercent)
	}
	if r.StorageMB <= 0 || r.NetworkMB <= 0 || r.MemoryMB <= 0 {
		t.Fatalf("non-positive footprint: %+v", r)
	}
	if _, err := Run(model.KindB, pool[0], 0, 1); err == nil {
		t.Fatal("zero records must error")
	}
	if _, err := Run(model.Kind("zz"), pool[0], 10, 1); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestSlowDeviceSlower(t *testing.T) {
	pool := ByName(BenchPool())
	fast, err := Run(model.KindB, pool["iPhone-13"], 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(model.KindB, pool["Galaxy-J7"], 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TrainSeconds <= 2*fast.TrainSeconds {
		t.Fatalf("J7 (%.1fs) should be much slower than iPhone-13 (%.1fs)",
			slow.TrainSeconds, fast.TrainSeconds)
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(BenchPool(), 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byKind := make(map[model.Kind]Table5Row)
	for _, r := range rows {
		byKind[r.Model] = r
		if r.StdevTimeS <= 0 {
			t.Fatalf("model %s: no heterogeneity spread", r.Model)
		}
		// Heterogeneous pool: stdev should be a large fraction of mean
		// (paper: 44.17/61.81 ≈ 0.71 for model B).
		if r.StdevTimeS < 0.3*r.MeanTimeS {
			t.Fatalf("model %s: stdev %.2f too small vs mean %.2f", r.Model, r.StdevTimeS, r.MeanTimeS)
		}
	}
	// Table 5 orderings that must hold: C < A < B < D < E on time.
	if !(byKind[model.KindC].MeanTimeS < byKind[model.KindA].MeanTimeS) {
		t.Fatalf("C (%.2f) must train faster than A (%.2f)",
			byKind[model.KindC].MeanTimeS, byKind[model.KindA].MeanTimeS)
	}
	if !(byKind[model.KindA].MeanTimeS < byKind[model.KindB].MeanTimeS) {
		t.Fatal("A must train faster than B")
	}
	if !(byKind[model.KindB].MeanTimeS < byKind[model.KindD].MeanTimeS) {
		t.Fatal("B must train faster than D")
	}
	if !(byKind[model.KindD].MeanTimeS < byKind[model.KindE].MeanTimeS) {
		t.Fatal("D must train faster than E")
	}
	// Magnitude difference between tasks A and B (paper: ~12x).
	ratio := byKind[model.KindB].MeanTimeS / byKind[model.KindA].MeanTimeS
	if ratio < 4 || ratio > 40 {
		t.Fatalf("B/A time ratio %.1f outside the magnitudes-difference band", ratio)
	}
	// E must be the most CPU-hungry (the model the paper gates on >80% battery).
	for _, k := range []model.Kind{model.KindA, model.KindB, model.KindC, model.KindD} {
		if byKind[model.KindE].MeanCPU <= byKind[k].MeanCPU {
			t.Fatalf("E CPU %.2f must exceed %s CPU %.2f",
				byKind[model.KindE].MeanCPU, k, byKind[k].MeanCPU)
		}
	}
	if _, err := Table5(nil, 100, 1); err == nil {
		t.Fatal("empty pool must error")
	}
}

func TestFig4TaskInversion(t *testing.T) {
	// Fig 4's point: a device better at task A can be worse at task B.
	// Our pool encodes matmul-vs-gather efficiency differences; verify at
	// least one device pair inverts between models B (matmul-heavy) and C
	// (gather-heavy).
	pool := BenchPool()
	secB := make([]float64, len(pool))
	secC := make([]float64, len(pool))
	for i, p := range pool {
		rb, err := Run(model.KindB, p, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := Run(model.KindC, p, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		secB[i], secC[i] = rb.SecPerRecord, rc.SecPerRecord
	}
	inverted := false
	for i := 0; i < len(pool) && !inverted; i++ {
		for j := 0; j < len(pool); j++ {
			if secB[i] < secB[j] && secC[i] > secC[j] {
				inverted = true
				break
			}
		}
	}
	if !inverted {
		t.Fatal("no task-ordering inversion across devices; Fig 4's effect is missing")
	}
}

func TestPopulationSampleAndDistribution(t *testing.T) {
	pm := DefaultPopulation()
	devs, err := pm.Sample(40000)
	if err != nil {
		t.Fatal(err)
	}
	ios := Distribution(devs, IOS, 8)
	android := Distribution(devs, Android, 8)
	if ios.Devices == 0 || android.Devices == 0 {
		t.Fatal("both platforms must appear")
	}
	// Fig 1: iOS concentrated, Android diverse.
	iosTop := ios.TopShares[len(ios.TopShares)-1]
	andTop := android.TopShares[len(android.TopShares)-1]
	if iosTop < 0.6 {
		t.Fatalf("iOS top-8 share %.2f should be concentrated", iosTop)
	}
	if andTop >= iosTop {
		t.Fatalf("Android top-8 %.2f must be more diverse than iOS %.2f", andTop, iosTop)
	}
	if android.DistinctModels < 10*ios.DistinctModels {
		t.Fatalf("Android models (%d) must dwarf iOS models (%d)", android.DistinctModels, ios.DistinctModels)
	}
	if android.GrayShare <= ios.GrayShare {
		t.Fatalf("Android gray region %.2f must exceed iOS %.2f", android.GrayShare, ios.GrayShare)
	}
	// Empty platform view.
	empty := Distribution(nil, IOS, 5)
	if empty.Devices != 0 {
		t.Fatal("empty distribution")
	}
}

func TestPopulationValidation(t *testing.T) {
	if _, err := (PopulationModel{TailModels: 10}).Sample(10); err == nil {
		t.Fatal("empty pool must error")
	}
	if _, err := (PopulationModel{Pool: BenchPool()}).Sample(10); err == nil {
		t.Fatal("zero tail models must error")
	}
}

func TestTimeDistribution(t *testing.T) {
	td, err := NewTimeDistribution(model.KindB, BenchPool())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	mean := td.Mean()
	if mean <= 0 {
		t.Fatalf("mean %v", mean)
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := td.Sample(rng)
		if s <= 0 {
			t.Fatalf("sample %v", s)
		}
		sum += s
	}
	if got := sum / n; got < mean*0.7 || got > mean*1.3 {
		t.Fatalf("sampled mean %v far from weighted mean %v", got, mean)
	}
	if _, err := NewTimeDistribution(model.KindB, nil); err == nil {
		t.Fatal("empty pool must error")
	}
}

// TestSecPerRecordOn covers the per-record projection a benchmark run
// reports for one device.
func TestSecPerRecordOn(t *testing.T) {
	pool := BenchPool()
	r, err := Run(model.KindA, pool[0], 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SecPerRecord <= 0 {
		t.Fatalf("sec/record %v", r.SecPerRecord)
	}
	if _, err := Run(model.Kind("x"), pool[0], 10, 1); err == nil {
		t.Fatal("unknown kind must error")
	}
}
