package fedsim

import (
	"fmt"
	"math"
)

// RoundStat records one aggregation round's model and system metrics; the
// framework "can report model and system metrics over both virtual clock
// time and communication rounds" (§3.4).
type RoundStat struct {
	Round int
	// VTime is the virtual time of the aggregation (seconds from job start).
	VTime float64
	// Metric is the offline eval metric, NaN when not evaluated this round.
	Metric float64
	// LR is the client learning rate used for tasks based on this round.
	LR float64
	// Per-round task outcomes (since the previous aggregation).
	Started, Succeeded, Interrupted, Stale, Failed, Stragglers int
	// BufferFillSec is the async time to populate the buffer (Fig 7).
	BufferFillSec float64
	// ComputeSec is client device compute consumed since the previous
	// aggregation (includes wasted work).
	ComputeSec float64
	// MeanLoss is the mean reported local training loss of aggregated
	// updates.
	MeanLoss float64
}

// Evaluated reports whether the round carries an eval metric.
func (r RoundStat) Evaluated() bool { return !math.IsNaN(r.Metric) }

// Report is the simulation output consumed by the decision workflow and the
// benchmark harness.
type Report struct {
	Mode      Mode
	ModelKind string
	Rounds    []RoundStat

	// Cumulative task outcomes. TotalStarted "includes failed and stale
	// tasks which are not aggregated" (Table 3).
	TotalStarted, TotalSucceeded, TotalInterrupted, TotalStale, TotalFailed, TotalStragglers int
	// TotalComputeSec is Σ taskDuration(k) over every client that
	// performed work — the device resource budget of §3.5.
	TotalComputeSec float64
	// FinalMetric is the last evaluated metric (NaN when never evaluated).
	FinalMetric float64
	// FinalVTime is the virtual time when the job stopped.
	FinalVTime float64
	// StopReason is a human-readable stop cause.
	StopReason string
}

// LastEvaluated returns the most recent evaluated round, if any.
func (r *Report) LastEvaluated() (RoundStat, bool) {
	for i := len(r.Rounds) - 1; i >= 0; i-- {
		if r.Rounds[i].Evaluated() {
			return r.Rounds[i], true
		}
	}
	return RoundStat{}, false
}

// MetricSeries returns (round, vtime, metric) triples for evaluated rounds —
// the Fig 10 training curves.
func (r *Report) MetricSeries() (rounds []int, vtimes, values []float64) {
	for _, rs := range r.Rounds {
		if rs.Evaluated() {
			rounds = append(rounds, rs.Round)
			vtimes = append(vtimes, rs.VTime)
			values = append(values, rs.Metric)
		}
	}
	return rounds, vtimes, values
}

// MeanBufferFillSec averages the buffer population time over rounds (Fig 7).
func (r *Report) MeanBufferFillSec() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	var s float64
	n := 0
	for _, rs := range r.Rounds {
		if rs.BufferFillSec > 0 {
			s += rs.BufferFillSec
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// String summarizes the report in one line.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s: %d rounds, vtime %.0fs, started %d, ok %d, interrupted %d, stale %d, failed %d, stragglers %d, compute %.0fs, metric %.4f",
		r.Mode, r.ModelKind, len(r.Rounds), r.FinalVTime, r.TotalStarted, r.TotalSucceeded,
		r.TotalInterrupted, r.TotalStale, r.TotalFailed, r.TotalStragglers, r.TotalComputeSec, r.FinalMetric)
}
