// Package tensor provides the minimal dense linear algebra used by the
// FLINT training stack: float64 vectors and row-major matrices with the
// in-place and allocating operations needed for forward/backward passes,
// SGD updates, and federated aggregation.
//
// The package is deliberately small: models in this repository are the
// mobile-scale architectures of the paper's Table 5 (1.5k–922k parameters),
// so a straightforward scalar implementation is fast enough and keeps the
// module dependency-free.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Add accumulates o into v element-wise. It panics if lengths differ.
func (v Vector) Add(o Vector) {
	mustSameLen(len(v), len(o), "Add")
	for i := range v {
		v[i] += o[i]
	}
}

// Sub subtracts o from v element-wise. It panics if lengths differ.
func (v Vector) Sub(o Vector) {
	mustSameLen(len(v), len(o), "Sub")
	for i := range v {
		v[i] -= o[i]
	}
}

// AddScaled accumulates alpha*o into v. It panics if lengths differ.
func (v Vector) AddScaled(alpha float64, o Vector) {
	mustSameLen(len(v), len(o), "AddScaled")
	for i := range v {
		v[i] += alpha * o[i]
	}
}

// Scale multiplies every element of v by alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of v and o. It panics if lengths differ.
func (v Vector) Dot(o Vector) float64 {
	mustSameLen(len(v), len(o), "Dot")
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       Vector // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes out = m * x (out has length Rows, x length Cols).
// out may not alias x. It panics on shape mismatch.
func (m *Matrix) MulVec(x, out Vector) {
	mustSameLen(len(x), m.Cols, "MulVec x")
	mustSameLen(len(out), m.Rows, "MulVec out")
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
}

// MulVecT computes out = mᵀ * x (out has length Cols, x length Rows).
// out may not alias x. It panics on shape mismatch.
func (m *Matrix) MulVecT(x, out Vector) {
	mustSameLen(len(x), m.Rows, "MulVecT x")
	mustSameLen(len(out), m.Cols, "MulVecT out")
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			out[j] += w * xi
		}
	}
}

// AddOuterScaled accumulates alpha * x ⊗ y into m, where x has length Rows
// and y has length Cols. Used for weight-gradient accumulation.
func (m *Matrix) AddOuterScaled(alpha float64, x, y Vector) {
	mustSameLen(len(x), m.Rows, "AddOuterScaled x")
	mustSameLen(len(y), m.Cols, "AddOuterScaled y")
	for i := 0; i < m.Rows; i++ {
		ax := alpha * x[i]
		if ax == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += ax * yj
		}
	}
}

func mustSameLen(got, want int, op string) {
	if got != want {
		panic(fmt.Sprintf("tensor: %s: length %d, want %d", op, got, want))
	}
}
