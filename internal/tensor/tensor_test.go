package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Add(Vector{4, 5, 6})
	want := Vector{5, 7, 9}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Add: got %v want %v", v, want)
		}
	}
	v.Sub(Vector{1, 1, 1})
	if v[0] != 4 || v[1] != 6 || v[2] != 8 {
		t.Fatalf("Sub: got %v", v)
	}
	v.Scale(0.5)
	if v[0] != 2 || v[1] != 3 || v[2] != 4 {
		t.Fatalf("Scale: got %v", v)
	}
	v.AddScaled(2, Vector{1, 1, 1})
	if v[0] != 4 || v[1] != 5 || v[2] != 6 {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestVectorDotNormSum(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(Vector{1, 2}); got != 11 {
		t.Fatalf("Dot: got %v want 11", got)
	}
	if got := v.Norm2(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2: got %v want 5", got)
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone must not alias original")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, Vector{1, 2, 3, 4, 5, 6})
	out := NewVector(2)
	m.MulVec(Vector{1, 1, 1}, out)
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("MulVec: got %v", out)
	}
	tout := NewVector(3)
	m.MulVecT(Vector{1, 1}, tout)
	if tout[0] != 5 || tout[1] != 7 || tout[2] != 9 {
		t.Fatalf("MulVecT: got %v", tout)
	}
}

func TestMatrixMulVecTransposeConsistency(t *testing.T) {
	// Property: yᵀ(Mx) == (Mᵀy)ᵀx for random M, x, y.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		x, y := NewVector(c), NewVector(r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		mx := NewVector(r)
		m.MulVec(x, mx)
		mty := NewVector(c)
		m.MulVecT(y, mty)
		if !almostEqual(y.Dot(mx), mty.Dot(x), 1e-9) {
			t.Fatalf("transpose identity violated: %v vs %v", y.Dot(mx), mty.Dot(x))
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, Vector{1, 2}, Vector{3, 4})
	want := Vector{6, 8, 12, 16}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuterScaled: got %v want %v", m.Data, want)
		}
	}
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Data[1*m.Cols+1] = 42
	row := m.Row(1)
	if len(row) != 2 || row[1] != 42 {
		t.Fatalf("Row(1) = %v, want [0 42]", row)
	}
	row[0] = 7
	if m.Data[1*m.Cols] != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestSigmoidStable(t *testing.T) {
	if got := Sigmoid(0); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Sigmoid(0)=%v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Fatalf("Sigmoid(1000)=%v want 1", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Fatalf("Sigmoid(-1000)=%v want 0", got)
	}
	// Symmetry property: sigmoid(-x) == 1 - sigmoid(x).
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 50)
		return almostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyReLU(t *testing.T) {
	v := Vector{-1, 0, 2}
	mask := NewVector(3)
	ApplyReLU(v, mask)
	if v[0] != 0 || v[1] != 0 || v[2] != 2 {
		t.Fatalf("ApplyReLU: got %v", v)
	}
	if mask[0] != 0 || mask[1] != 0 || mask[2] != 1 {
		t.Fatalf("ApplyReLU mask: got %v", mask)
	}
	// nil mask must not panic.
	ApplyReLU(Vector{-1, 1}, nil)
}

func TestLogLoss(t *testing.T) {
	if got := LogLoss(0.5, 1); !almostEqual(got, math.Ln2, 1e-12) {
		t.Fatalf("LogLoss(0.5,1)=%v want ln2", got)
	}
	// Must be finite even at the boundary.
	if got := LogLoss(0, 1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogLoss(0,1)=%v must be finite", got)
	}
	if got := LogLoss(1, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogLoss(1,0)=%v must be finite", got)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVector(1000)
	XavierInit(v, 10, 10, rng)
	bound := math.Sqrt(6.0 / 20.0)
	for _, x := range v {
		if math.Abs(x) > bound {
			t.Fatalf("XavierInit out of bounds: %v > %v", x, bound)
		}
	}
	if v.Norm2() == 0 {
		t.Fatal("XavierInit produced all zeros")
	}
}
