// Package aggregator implements the server-side update aggregation of the
// FL platform: synchronous FedAvg (McMahan et al., 2017), asynchronous
// FedBuff with staleness weighting (Nguyen et al., 2022), the privacy
// enhancing technologies of §3.6 (aggregate clipping + Gaussian noise for
// FL-DP with its accountant, the TEE aggregator's ingest load), and the
// robust-aggregation defenses evaluated against poisoning. The commit
// configuration (AggregationConfig, DPConfig) is defined here once, so the
// live server and the simulator build the same screen → reduce → DP
// stages from it.
package aggregator

import (
	"fmt"
	"math"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// Update is one client's contribution: the delta between its locally
// trained parameters and the global snapshot it started from.
type Update struct {
	ClientID int64
	// Delta is local_params - base_params.
	Delta tensor.Vector
	// Payload optionally carries the contribution still in wire form (a
	// validated codec.Payload view) instead of a decoded Delta: FedAvg
	// and FedBuff's range kernels decode straight out of it, so the
	// ingest→commit path never materializes a full-dim vector per
	// update. When Delta is non-nil it wins and Payload is ignored.
	// The robust column reducers (TrimmedMean, CoordinateMedian) decode
	// one cache-resident tile of every update at a time into pooled
	// scratch instead; the simulated poisoning adversary requires a
	// dense Delta.
	Payload *codec.Payload
	// Weight is the aggregation weight, conventionally the client's
	// example count |Dk|.
	Weight float64
	// Staleness counts server aggregations that happened between the
	// client's dispatch and its arrival (0 in synchronous mode).
	Staleness int
}

// dim is the update's declared element count, whichever form it carries.
func (u Update) dim() int {
	if u.Delta != nil {
		return len(u.Delta)
	}
	if u.Payload != nil {
		return u.Payload.Dim()
	}
	return 0
}

// Strategy folds a batch of updates into the global parameter vector.
type Strategy interface {
	Name() string
	Aggregate(global tensor.Vector, updates []Update) error
}

// weightOf returns an update's effective aggregation weight (a missing or
// non-positive weight counts as 1).
func weightOf(u Update) float64 {
	if u.Weight <= 0 {
		return 1
	}
	return u.Weight
}

// validateDims rejects updates whose delta (dense or wire-form) does not
// match the global dimension, with the error every strategy reports for
// that case.
func validateDims(global tensor.Vector, updates []Update) error {
	for _, u := range updates {
		if u.dim() != len(global) {
			return fmt.Errorf("aggregator: update from client %d has %d params, want %d", u.ClientID, u.dim(), len(global))
		}
	}
	return nil
}

// FedAvg is weighted federated averaging: global += Σ wᵢΔᵢ / Σ wᵢ.
type FedAvg struct{}

// Name implements Strategy.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Strategy.
func (f FedAvg) Aggregate(global tensor.Vector, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("aggregator: fedavg with no updates")
	}
	if err := validateDims(global, updates); err != nil {
		return err
	}
	return f.aggregateRange(global, updates, 0, len(global))
}

// aggregateRange implements rangeStrategy: it folds the updates into
// global[lo:hi] only, in the same per-coordinate order as the sequential
// pass, so sharding the coordinate space across workers reproduces the
// sequential result bit for bit. Payload-backed updates take the fused
// kernel — decode, weight, and reduce in one pass over the wire bytes —
// which computes each decoded value and each accumulation with the exact
// expressions the materialize-then-AddScaled path uses, preserving that
// bit-identity across mixed dense/wire update sets. Callers have
// validated dimensions.
func (FedAvg) aggregateRange(global tensor.Vector, updates []Update, lo, hi int) error {
	var totalW float64
	for _, u := range updates {
		totalW += weightOf(u)
	}
	foldRange(global, updates, lo, hi, func(u Update) float64 {
		return weightOf(u) / totalW
	})
	return nil
}

// foldRange adds every update's [lo:hi) window, weighted by alpha(u), to
// global[lo:hi] in slice order. Dense updates fold one at a time;
// consecutive payload-backed ones go to codec.AddScaledGroup in windows
// of four (the codec's group width), which loads each coordinate once
// per group instead of once per update. Per coordinate the additions
// happen in slice order either way, so the result is the
// one-update-at-a-time fold bit for bit.
func foldRange(global tensor.Vector, updates []Update, lo, hi int, alpha func(Update) float64) {
	g := global[lo:hi]
	var ps [4]*codec.Payload
	var as [4]float64
	n := 0
	for _, u := range updates {
		if u.Delta != nil {
			codec.AddScaledGroup(g, ps[:n], as[:n], lo, hi)
			n = 0
			g.AddScaled(alpha(u), u.Delta[lo:hi])
			continue
		}
		ps[n], as[n] = u.Payload, alpha(u)
		n++
		if n == len(ps) {
			codec.AddScaledGroup(g, ps[:], as[:], lo, hi)
			n = 0
		}
	}
	codec.AddScaledGroup(g, ps[:n], as[:n], lo, hi)
}

// FedBuff applies a buffered asynchronous aggregation with polynomial
// staleness discounting: global += ServerLR · Σ s(τᵢ)·Δᵢ / K, where
// s(τ) = 1/(1+τ)^Alpha.
type FedBuff struct {
	// ServerLR is the server-side step size applied to the averaged
	// buffer (1.0 recovers plain averaging).
	ServerLR float64
	// Alpha is the staleness-discount exponent; 0 disables discounting.
	Alpha float64
}

// Name implements Strategy.
func (f FedBuff) Name() string { return "fedbuff" }

// StalenessWeight returns the discount applied to an update of staleness τ.
func (f FedBuff) StalenessWeight(tau int) float64 {
	if tau < 0 {
		tau = 0
	}
	return 1 / math.Pow(1+float64(tau), f.Alpha)
}

// Aggregate implements Strategy: a data-weighted, staleness-discounted mean
// of the buffer, global += ServerLR · Σ wᵢsᵢΔᵢ / Σ wᵢsᵢ, so fresh buffers
// recover FedAvg's weighted-averaging semantics.
func (f FedBuff) Aggregate(global tensor.Vector, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("aggregator: fedbuff with no updates")
	}
	if err := validateDims(global, updates); err != nil {
		return err
	}
	return f.aggregateRange(global, updates, 0, len(global))
}

// aggregateRange implements rangeStrategy; see FedAvg.aggregateRange for
// the sharding contract. Each worker recomputes the O(K) scalar weights —
// negligible next to its O(K·dim/P) vector work.
func (f FedBuff) aggregateRange(global tensor.Vector, updates []Update, lo, hi int) error {
	lr := f.ServerLR
	if lr <= 0 {
		lr = 1
	}
	var totalW float64
	for _, u := range updates {
		totalW += weightOf(u) * f.StalenessWeight(u.Staleness)
	}
	if totalW == 0 {
		return fmt.Errorf("aggregator: fedbuff with zero total weight")
	}
	foldRange(global, updates, lo, hi, func(u Update) float64 {
		return lr * weightOf(u) * f.StalenessWeight(u.Staleness) / totalW
	})
	return nil
}

// TrimmedMean is a robust strategy: coordinate-wise mean after discarding
// the TrimFrac highest and lowest values per coordinate, a standard defense
// against update poisoning (§3.6, §4.2).
type TrimmedMean struct {
	// TrimFrac in [0, 0.5): fraction trimmed from each side.
	TrimFrac float64
}

// Name implements Strategy.
func (t TrimmedMean) Name() string { return "trimmed-mean" }

// Aggregate implements Strategy.
func (t TrimmedMean) Aggregate(global tensor.Vector, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("aggregator: trimmed mean with no updates")
	}
	if err := validateDims(global, updates); err != nil {
		return err
	}
	return t.aggregateRange(global, updates, 0, len(global))
}

// aggregateRange implements rangeStrategy: the per-side trim count comes
// from trimCount and the range is reduced by the robust tile driver
// (trimmedRange in robust.go), which never materializes more than one
// tile of the update set. Scalar validation runs identically in every
// worker before any of them mutates global.
func (t TrimmedMean) aggregateRange(global tensor.Vector, updates []Update, lo, hi int) error {
	if t.TrimFrac < 0 || t.TrimFrac >= 0.5 {
		return fmt.Errorf("aggregator: trim fraction %v outside [0, 0.5)", t.TrimFrac)
	}
	trimmedRange(global, updates, lo, hi, trimCount(t.TrimFrac, len(updates)))
	return nil
}

// trimCount is the number of updates TrimmedMean discards from each side
// of a column of n: floor(frac·n), with an epsilon guard so products that
// are whole numbers in exact arithmetic but land one ulp short in float64
// (0.29 × 100 = 28.999999999999996) are not truncated a whole update low,
// and capped so at least one middle element always survives.
func trimCount(frac float64, n int) int {
	return min(int(math.Floor(frac*float64(n)+1e-9)), (n-1)/2)
}

// AggregationConfig selects a commit's reducer and its pre-reduce norm
// screen — one definition for the live server and the simulator. The
// zero value keeps the mode's default reducer (FedAvg for sync, FedBuff
// for async) with no screening.
type AggregationConfig struct {
	// Strategy names the reducer: "" keeps the mode default, "fedavg"
	// and "fedbuff" pin it explicitly (and must match the mode), and
	// "trimmed-mean" / "coordinate-median" install the Byzantine-robust
	// column reducers, which need the round's full update population in
	// one place.
	Strategy string
	// TrimFrac is trimmed-mean's per-side trim fraction in [0, 0.5)
	// (default 0.1 when Strategy is "trimmed-mean").
	TrimFrac float64
	// ScreenMaxNorm rejects updates whose L2 norm exceeds this absolute
	// cap before they enter the reduce (0 disables).
	ScreenMaxNorm float64
	// ScreenMedianFactor rejects updates whose norm exceeds this multiple
	// of the round's median update norm (0 disables). Unlike the robust
	// reducers, the screen is a per-update predicate, so it stays sound
	// applied per cohort.
	ScreenMedianFactor float64
}

// Robust reports whether the named strategy is a column reducer that
// needs the round's full update population.
func (a AggregationConfig) Robust() bool {
	return a.Strategy == "trimmed-mean" || a.Strategy == "coordinate-median"
}

// WithDefaults range-checks the config for a job in sync or async mode
// and fills trimmed-mean's default trim fraction.
func (a AggregationConfig) WithDefaults(async bool) (AggregationConfig, error) {
	switch a.Strategy {
	case "", "trimmed-mean", "coordinate-median":
	case "fedavg":
		if async {
			return a, fmt.Errorf("aggregator: aggregation %q requires sync mode", a.Strategy)
		}
	case "fedbuff":
		if !async {
			return a, fmt.Errorf("aggregator: aggregation %q requires async mode", a.Strategy)
		}
	default:
		return a, fmt.Errorf("aggregator: unknown aggregation strategy %q (want fedavg, fedbuff, trimmed-mean, or coordinate-median)", a.Strategy)
	}
	if a.Strategy == "trimmed-mean" {
		if a.TrimFrac == 0 {
			a.TrimFrac = 0.1
		}
		if a.TrimFrac < 0 || a.TrimFrac >= 0.5 {
			return a, fmt.Errorf("aggregator: trim fraction %v outside [0, 0.5)", a.TrimFrac)
		}
	} else if a.TrimFrac != 0 {
		return a, fmt.Errorf("aggregator: trim fraction set but aggregation strategy is %q, not trimmed-mean", a.Strategy)
	}
	return a, a.Screen().Validate()
}

// Screen is the norm screen the config names (zero value: disabled).
func (a AggregationConfig) Screen() NormScreen {
	return NormScreen{MaxNorm: a.ScreenMaxNorm, MedianFactor: a.ScreenMedianFactor}
}

// Reducer builds the configured reducer for a defaulted config: the
// robust reducers by name, otherwise the mode's — buff for async rounds,
// FedAvg for sync ones.
func (a AggregationConfig) Reducer(async bool, buff FedBuff) Strategy {
	switch {
	case a.Strategy == "trimmed-mean":
		return TrimmedMean{TrimFrac: a.TrimFrac}
	case a.Strategy == "coordinate-median":
		return CoordinateMedian{}
	case async:
		return buff
	}
	return FedAvg{}
}
