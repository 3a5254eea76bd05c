package data

import (
	"fmt"
	"math"
	"math/rand"
)

// QuantityModel samples per-client record counts. The paper's Table 2 shows
// that client quantity is extremely tail-heavy (ads: mean 99, std 667, max
// 39,731) because "superusers dominate"; a capped log-normal reproduces the
// mean/std/max shape at every domain's scale.
type QuantityModel struct {
	// Mu and Sigma parameterize the underlying log-normal.
	Mu, Sigma float64
	// Min is the per-client floor (every FL client has at least one record).
	Min int
	// Cap is the client-level down-sampling cap the paper applies
	// ("heavily down-sampled on a client level", Table 2). Zero means no cap.
	Cap int
}

// Sample draws one client quantity.
func (q QuantityModel) Sample(rng *rand.Rand) int {
	x := math.Exp(q.Mu + q.Sigma*rng.NormFloat64())
	n := int(math.Round(x))
	if n < q.Min {
		n = q.Min
	}
	if q.Cap > 0 && n > q.Cap {
		n = q.Cap
	}
	return n
}

// Validate reports configuration errors.
func (q QuantityModel) Validate() error {
	if q.Sigma < 0 {
		return fmt.Errorf("data: quantity sigma must be >= 0, got %v", q.Sigma)
	}
	if q.Min < 0 {
		return fmt.Errorf("data: quantity min must be >= 0, got %d", q.Min)
	}
	if q.Cap > 0 && q.Cap < q.Min {
		return fmt.Errorf("data: quantity cap %d below min %d", q.Cap, q.Min)
	}
	return nil
}

// Quantity models calibrated against Table 2 of the paper.
var (
	// AdsQuantity targets mean≈99, std≈667 (capped at the paper's observed
	// max of 39,731) for Dataset A.
	AdsQuantity = QuantityModel{Mu: 2.68, Sigma: 1.957, Min: 1, Cap: 39731}
	// MessagingQuantity targets mean≈184, std≈374 for Dataset B.
	MessagingQuantity = QuantityModel{Mu: 4.397, Sigma: 1.279, Min: 1, Cap: 103471}
	// SearchQuantity targets mean≈1.53, std≈1.47 for Dataset C, whose
	// clients mostly hold one or two records.
	SearchQuantity = QuantityModel{Mu: 0.07, Sigma: 0.85, Min: 1, Cap: 406}
)
