package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"flint/internal/data"
	"flint/internal/tensor"
)

// Table 5's published parameter counts; our architectures must land within 1%.
var paperParams = map[Kind]float64{
	KindA: 1510,
	KindB: 189000,
	KindC: 208000,
	KindD: 390000,
	KindE: 922000,
}

func TestParamCountsMatchTable5(t *testing.T) {
	for kind, want := range paperParams {
		m, err := New(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.NumParams())
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("model %s: %v params, paper reports %v (diff > 1%%)", kind, got, want)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind("Z"), 1); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func exampleFor(t *testing.T, kind Kind, seed int64) *data.Example {
	t.Helper()
	spec, err := InputSpecFor(kind)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.Dummy(spec, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Examples[0]
}

func TestPredictInRange(t *testing.T) {
	for _, kind := range Kinds {
		m, err := New(kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(0); s < 10; s++ {
			p := m.Predict(exampleFor(t, kind, s))
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("model %s: prediction %v outside [0,1]", kind, p)
			}
		}
	}
}

func TestTrainStepAccumulatesGrads(t *testing.T) {
	for _, kind := range Kinds {
		m, err := New(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		ex := exampleFor(t, kind, 7)
		loss := m.TrainStep(ex)
		if loss <= 0 || math.IsNaN(loss) {
			t.Fatalf("model %s: loss %v", kind, loss)
		}
		if m.Grads().Norm2() == 0 {
			t.Fatalf("model %s: gradients all zero after TrainStep", kind)
		}
		m.ZeroGrads()
		if m.Grads().Norm2() != 0 {
			t.Fatalf("model %s: ZeroGrads left residue", kind)
		}
	}
}

// TestGradientCheck verifies the analytic gradient of every architecture
// against a central finite difference on a sample of coordinates. This is
// the key correctness test for the whole training stack.
func TestGradientCheck(t *testing.T) {
	for _, kind := range Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, err := New(kind, 5)
			if err != nil {
				t.Fatal(err)
			}
			ex := exampleFor(t, kind, 11)
			m.ZeroGrads()
			m.TrainStep(ex)
			analytic := m.Grads().Clone()

			loss := func() float64 {
				// Recompute the pure loss without touching grads:
				// TrainStep accumulates, so use a clone.
				c := m.Clone()
				c.ZeroGrads()
				return c.TrainStep(ex)
			}
			// Sample among active coordinates: single-example gradients
			// touch only a sliver of embedding tables.
			var active []int
			for i, gr := range analytic {
				if gr != 0 {
					active = append(active, i)
				}
			}
			const eps = 1e-5
			rng := rand.New(rand.NewSource(13))
			params := m.Params()
			checked := 0
			for try := 0; try < 400 && checked < 25 && len(active) > 0; try++ {
				i := active[rng.Intn(len(active))]
				orig := params[i]
				params[i] = orig + eps
				up := loss()
				params[i] = orig - eps
				down := loss()
				params[i] = orig
				numeric := (up - down) / (2 * eps)
				diff := math.Abs(numeric - analytic[i])
				scale := math.Max(1e-6, math.Max(math.Abs(numeric), math.Abs(analytic[i])))
				if diff/scale > 2e-3 {
					t.Fatalf("model %s param %d: analytic %v numeric %v", kind, i, analytic[i], numeric)
				}
				checked++
			}
			if checked < 10 {
				t.Fatalf("model %s: only %d gradient coordinates checked", kind, checked)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, kind := range Kinds {
		m, err := New(kind, 6)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Clone()
		if c.NumParams() != m.NumParams() {
			t.Fatalf("model %s: clone param count mismatch", kind)
		}
		before := m.Params()[0]
		c.Params()[0] = before + 42
		if m.Params()[0] != before {
			t.Fatalf("model %s: clone aliases original", kind)
		}
	}
}

func TestSetParamsValidates(t *testing.T) {
	m, err := New(KindA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetParams(tensor.NewVector(3)); err == nil {
		t.Fatal("length mismatch must error")
	}
	p := tensor.NewVector(m.NumParams())
	p.Fill(0.25)
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if m.Params()[0] != 0.25 {
		t.Fatal("SetParams must copy values")
	}
}

func TestCostProfiles(t *testing.T) {
	var prevTrain float64
	order := []Kind{KindA, KindC, KindB, KindD, KindE} // ascending device cost per Table 5
	for _, kind := range order {
		m, err := New(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Cost()
		if c.TrainFLOPs <= 0 || c.InferFLOPs <= 0 || c.WeightBytes <= 0 {
			t.Fatalf("model %s: non-positive cost fields %+v", kind, c)
		}
		if c.TrainFLOPs <= c.InferFLOPs {
			t.Fatalf("model %s: training must cost more than inference", kind)
		}
		if c.MatmulFrac < 0 || c.MatmulFrac > 1 {
			t.Fatalf("model %s: matmul fraction %v", kind, c.MatmulFrac)
		}
		if c.WeightBytes != 4*m.NumParams() {
			t.Fatalf("model %s: weight bytes %d != 4*params", kind, c.WeightBytes)
		}
		if c.StorageBytes() < c.WeightBytes {
			t.Fatalf("model %s: storage below weights", kind)
		}
		if c.NetworkBytesPerRound() != 2*c.TransferBytes() {
			t.Fatalf("model %s: network accounting broken", kind)
		}
		if kind != KindA && c.TrainFLOPs <= prevTrain {
			t.Fatalf("device-cost ordering violated at %s: %v <= %v", kind, c.TrainFLOPs, prevTrain)
		}
		prevTrain = c.TrainFLOPs
	}
}

func TestTrainLocalLearnsAds(t *testing.T) {
	g, err := data.NewAdsGenerator(data.DefaultAdsConfig(200, 21))
	if err != nil {
		t.Fatal(err)
	}
	train := data.Pool(g, 40)
	test := g.TestSet(800)
	m, err := New(KindB, 2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := EvalAUPR(m, test)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainLocal(m, train.Examples, LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1}, rng); err != nil {
		t.Fatal(err)
	}
	after, err := EvalAUPR(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before+0.02 {
		t.Fatalf("training did not improve AUPR: %v -> %v", before, after)
	}
}

func TestTrainLocalValidation(t *testing.T) {
	m, _ := New(KindA, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainLocal(m, nil, LocalConfig{Epochs: 1, BatchSize: 1, LR: 0.1}, rng); err == nil {
		t.Fatal("empty examples must error")
	}
	ex := exampleFor(t, KindA, 1)
	bad := []LocalConfig{
		{Epochs: 0, BatchSize: 1, LR: 0.1},
		{Epochs: 1, BatchSize: 0, LR: 0.1},
		{Epochs: 1, BatchSize: 1, LR: 0},
	}
	for i, cfg := range bad {
		if _, err := TrainLocal(m, []*data.Example{ex}, cfg, rng); err == nil {
			t.Fatalf("config %d must fail validation", i)
		}
	}
}

func TestSchedules(t *testing.T) {
	c := ConstantLR(0.1)
	if c.LR(0) != 0.1 || c.LR(100) != 0.1 {
		t.Fatal("constant schedule must be constant")
	}
	e := ExpDecayLR{Base: 1, Rate: 0.5, DecaySteps: 10}
	if e.LR(0) != 1 {
		t.Fatalf("exp decay at 0: %v", e.LR(0))
	}
	if got := e.LR(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("exp decay at 10: %v", got)
	}
	if e.LR(20) >= e.LR(10) {
		t.Fatal("exp decay must decrease")
	}
	f := ExpDecayLR{Base: 1, Rate: 0.5, DecaySteps: 10, Floor: 0.4}
	if f.LR(100) != 0.4 {
		t.Fatalf("floor not applied: %v", f.LR(100))
	}
	z := ExpDecayLR{Base: 1, Rate: 0.5}
	if z.LR(5) != 1 {
		t.Fatal("zero decay steps must hold base")
	}
	if c.String() == "" || e.String() == "" {
		t.Fatal("schedules must print")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range Kinds {
		m, err := New(kind, 17)
		if err != nil {
			t.Fatal(err)
		}
		ex := exampleFor(t, kind, 3)
		want := m.Predict(ex)
		var buf bytes.Buffer
		if err := Save(m, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Predict(ex); math.Abs(got-want) > 1e-12 {
			t.Fatalf("model %s: round-trip prediction %v != %v", kind, got, want)
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob")); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

func TestEvalNDCG(t *testing.T) {
	g, err := data.NewSearchGenerator(data.DefaultSearchConfig(300, 31))
	if err != nil {
		t.Fatal(err)
	}
	test := g.TestSet(2500)
	m, err := New(KindA, 4)
	if err != nil {
		t.Fatal(err)
	}
	ndcg, err := EvalNDCG(m, test, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ndcg <= 0 || ndcg > 1 {
		t.Fatalf("NDCG %v outside (0,1]", ndcg)
	}
	// Training on search data should improve NDCG; clicks are rare
	// (~5% positives), so it takes a real pass over a real pool.
	train := data.Pool(g, 200)
	rng := rand.New(rand.NewSource(2))
	if _, err := TrainLocal(m, train.Examples, LocalConfig{Epochs: 6, BatchSize: 32, LR: 0.03}, rng); err != nil {
		t.Fatal(err)
	}
	after, err := EvalNDCG(m, test, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after <= ndcg+0.02 {
		t.Fatalf("NDCG did not improve: %v -> %v", ndcg, after)
	}
	if _, err := EvalNDCG(m, &data.Dataset{Examples: []*data.Example{{}}}, 0); err == nil {
		t.Fatal("NDCG without query groups must error")
	}
	// Zero-relevance-only groups are skipped and must error out when
	// nothing remains.
	zero := &data.Dataset{Examples: []*data.Example{{QueryID: 5}, {QueryID: 5}}}
	if _, err := EvalNDCG(m, zero, 0); err == nil {
		t.Fatal("all-zero relevance must error")
	}
}

func TestEvalDispatch(t *testing.T) {
	m, _ := New(KindA, 1)
	spec, _ := InputSpecFor(KindA)
	ds, _ := data.Dummy(spec, 64, 5)
	if _, err := Eval(m, ds, MetricAUPR); err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(m, ds, Metric("bogus")); err == nil {
		t.Fatal("unknown metric must error")
	}
}

func TestMultiTaskTrainsAllHeads(t *testing.T) {
	cfg := data.DefaultMessagingConfig(50, 3)
	cfg.Tasks = 3
	g, err := data.NewMessagingGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Model E consumes dense features; use dummy multi-task records.
	spec, _ := InputSpecFor(KindE)
	ds, _ := data.Dummy(spec, 8, 9)
	m, err := New(KindE, 8)
	if err != nil {
		t.Fatal(err)
	}
	mt := m.(*multiTaskMLP)
	loss := m.TrainStep(ds.Examples[0])
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	if multiTaskHeads != 3 {
		t.Fatalf("want 3 task heads, got %d", multiTaskHeads)
	}
	mt.trunkForward(ds.Examples[0])
	for h := 0; h < multiTaskHeads; h++ {
		if p := mt.headForward(h); p < 0 || p > 1 {
			t.Fatalf("task %d prob %v", h, p)
		}
	}
}

func TestInputSpecs(t *testing.T) {
	for _, kind := range Kinds {
		spec, err := InputSpecFor(kind)
		if err != nil {
			t.Fatal(err)
		}
		if spec.DenseDim == 0 && spec.SparseDim == 0 && spec.Vocab == 0 {
			t.Fatalf("model %s: empty input spec", kind)
		}
	}
	if _, err := InputSpecFor(Kind("nope")); err == nil {
		t.Fatal("unknown kind must error")
	}
}
