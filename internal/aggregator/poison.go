package aggregator

import (
	"fmt"
	"math/rand"
)

// Attack mutates a subset of updates before aggregation, modeling the §4.1
// hub-and-spoke scenario where an SDK host application "controls a
// significant portion of the FL participants", and the §4.2 coordinated
// fake-message concern.
type Attack interface {
	Name() string
	// Poison returns the adversarial version of a compromised client's
	// update. The input delta must not be mutated.
	Poison(u Update, rng *rand.Rand) Update
}

// SignFlip inverts and scales compromised updates — a model-poisoning
// attack that pushes the global model away from the honest direction.
type SignFlip struct {
	// Scale amplifies the flipped update (boosting, typically > 1).
	Scale float64
}

// Name implements Attack.
func (SignFlip) Name() string { return "sign-flip" }

// Poison implements Attack.
func (a SignFlip) Poison(u Update, _ *rand.Rand) Update {
	s := a.Scale
	if s <= 0 {
		s = 1
	}
	out := u
	out.Delta = u.Delta.Clone()
	out.Delta.Scale(-s)
	return out
}

// Adversary compromises a fixed fraction of clients and poisons their
// updates deterministically by client id.
type Adversary struct {
	Attack Attack
	// Fraction of the client population under adversary control.
	Fraction float64
	Seed     int64
}

// Validate reports configuration errors.
func (a Adversary) Validate() error {
	if a.Attack == nil {
		return fmt.Errorf("aggregator: adversary needs an attack")
	}
	if a.Fraction < 0 || a.Fraction > 1 {
		return fmt.Errorf("aggregator: adversary fraction %v outside [0,1]", a.Fraction)
	}
	return nil
}

// Compromised reports whether the adversary controls the client, stable
// per (seed, client).
func (a Adversary) Compromised(clientID int64) bool {
	if a.Fraction <= 0 {
		return false
	}
	rng := rand.New(rand.NewSource(a.Seed ^ (clientID * 7_919)))
	return rng.Float64() < a.Fraction
}

// Apply poisons the compromised subset of updates, returning the mutated
// batch and the number poisoned.
func (a Adversary) Apply(updates []Update) ([]Update, int, error) {
	if err := a.Validate(); err != nil {
		return nil, 0, err
	}
	out := make([]Update, len(updates))
	poisoned := 0
	for i, u := range updates {
		if a.Compromised(u.ClientID) {
			rng := rand.New(rand.NewSource(a.Seed ^ (u.ClientID * 104_729)))
			out[i] = a.Attack.Poison(u, rng)
			poisoned++
		} else {
			out[i] = u
		}
	}
	return out, poisoned, nil
}
