package tensor

import (
	"math"
	"math/rand"
)

// Sigmoid returns 1/(1+exp(-x)), numerically stable for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ApplyReLU applies ReLU element-wise in place and records the active mask in
// mask (1 where x>0). mask may be nil.
func ApplyReLU(v, mask Vector) {
	for i, x := range v {
		if x > 0 {
			if mask != nil {
				mask[i] = 1
			}
		} else {
			v[i] = 0
			if mask != nil {
				mask[i] = 0
			}
		}
	}
}

// XavierInit fills v with uniform values in ±sqrt(6/(fanIn+fanOut)),
// the Glorot initialization used for every dense layer in the model zoo.
func XavierInit(v Vector, fanIn, fanOut int, rng *rand.Rand) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * bound
	}
}

// NormalInit fills v with N(0, std²) values.
func NormalInit(v Vector, std float64, rng *rand.Rand) {
	for i := range v {
		v[i] = rng.NormFloat64() * std
	}
}

// LogLoss returns the binary cross-entropy for prediction p in (0,1)
// against label y in {0,1}, with clamping for numerical stability.
func LogLoss(p, y float64) float64 {
	const eps = 1e-12
	p = math.Max(eps, math.Min(1-eps, p))
	if y >= 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}
