// Package partition implements the paper's proxy data generator (§3.3): it
// derives the Table 2 FL metadata of per-client partitions and writes one
// partition file per executor rather than one file per client, the layout
// that §3.4 credits for fast random access and a bounded namespace on
// pipeline storage.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"flint/internal/data"
	"flint/internal/metrics"
)

// Stats are the Table 2 characteristics stored back into the data catalog as
// FL-specific metadata: client population, per-client quantity distribution,
// and label ratio.
type Stats struct {
	Dataset    string
	ClientPop  int
	MaxRecords int
	AvgRecords float64
	StdRecords float64
	LabelRatio float64
	// LookbackDays is catalog metadata describing how much history the
	// centralized dataset spans; carried through from the domain config.
	LookbackDays int
}

// String renders one Table 2 column.
func (s Stats) String() string {
	return fmt.Sprintf("%s: pop=%d max=%d avg=%.2f std=%.2f label=%.2f lookback=%dd",
		s.Dataset, s.ClientPop, s.MaxRecords, s.AvgRecords, s.StdRecords, s.LabelRatio, s.LookbackDays)
}

// ComputeStats derives Table 2 metadata from materialized client shards.
func ComputeStats(name string, shards []data.ClientShard, lookbackDays int) Stats {
	quantities := make([]float64, len(shards))
	var pos, total int
	for i, s := range shards {
		quantities[i] = float64(len(s.Examples))
		total += len(s.Examples)
		for _, ex := range s.Examples {
			if ex.Positive() {
				pos++
			}
		}
	}
	sum := metrics.Summarize(quantities)
	st := Stats{
		Dataset:      name,
		ClientPop:    len(shards),
		MaxRecords:   int(sum.Max),
		AvgRecords:   sum.Mean,
		StdRecords:   sum.Std,
		LookbackDays: lookbackDays,
	}
	if total > 0 {
		st.LabelRatio = float64(pos) / float64(total)
	}
	return st
}

// QuantityStats computes the population-scale quantity distribution without
// materializing records — this is how the Table 2 bench reproduces the
// 16.4M-client search dataset's statistics in seconds.
func QuantityStats(name string, q data.QuantityModel, clients int, labelRatio float64, lookbackDays int, seed int64) (Stats, error) {
	if clients <= 0 {
		return Stats{}, fmt.Errorf("partition: clients must be positive, got %d", clients)
	}
	if err := q.Validate(); err != nil {
		return Stats{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sum, sq float64
	maxQ := 0
	for i := 0; i < clients; i++ {
		n := q.Sample(rng)
		sum += float64(n)
		sq += float64(n) * float64(n)
		if n > maxQ {
			maxQ = n
		}
	}
	mean := sum / float64(clients)
	variance := sq/float64(clients) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Stats{
		Dataset:      name,
		ClientPop:    clients,
		MaxRecords:   maxQ,
		AvgRecords:   mean,
		StdRecords:   math.Sqrt(variance),
		LabelRatio:   labelRatio,
		LookbackDays: lookbackDays,
	}, nil
}
