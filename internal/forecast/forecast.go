// Package forecast implements §3.5's resource projections: total device
// compute consumed by an FL job, aggregator (TEE) throughput and bandwidth
// needs, and cloud worker sizing against availability load swings.
package forecast

import (
	"fmt"
	"math"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/fedsim"
)

// DeviceBudget summarizes the edge resource bill of one training job —
// "a device-cloud platform should account for total edge resource
// utilization in its notion of budget".
type DeviceBudget struct {
	// ComputeSec is Σ taskDuration(k) over all clients that performed
	// training (Table 3's "client computation").
	ComputeSec float64
	// TasksStarted includes failed and stale tasks.
	TasksStarted int
	// WastedFraction is the share of started tasks whose work was
	// discarded (stragglers, stale, interrupted, failed).
	WastedFraction float64
	// EnergyWh estimates device energy at the configured draw.
	EnergyWh float64
}

// DeviceDrawWatts is the assumed on-device training power draw (a mid-range
// phone under sustained single-core + radio load).
const DeviceDrawWatts = 2.5

// BudgetFromReport derives the device budget from a simulation report.
func BudgetFromReport(rep *fedsim.Report) (DeviceBudget, error) {
	if rep == nil {
		return DeviceBudget{}, fmt.Errorf("forecast: nil report")
	}
	b := DeviceBudget{
		ComputeSec:   rep.TotalComputeSec,
		TasksStarted: rep.TotalStarted,
		EnergyWh:     rep.TotalComputeSec / 3600 * DeviceDrawWatts,
	}
	if rep.TotalStarted > 0 {
		wasted := rep.TotalStragglers + rep.TotalStale + rep.TotalInterrupted + rep.TotalFailed
		b.WastedFraction = float64(wasted) / float64(rep.TotalStarted)
	}
	return b, nil
}

// TEELoad projects the trusted-execution aggregator's ingest requirements,
// reproducing §3.5's math: Task C aggregates 610k tasks in 48 hours →
// 3.53 updates/s × 0.76 MB → 2.68 MB/s.
func TEELoad(rep *fedsim.Report, updateBytes int) (aggregator.TEEThroughput, error) {
	if rep == nil {
		return aggregator.TEEThroughput{}, fmt.Errorf("forecast: nil report")
	}
	if rep.FinalVTime <= 0 {
		return aggregator.TEEThroughput{}, fmt.Errorf("forecast: report has no elapsed virtual time")
	}
	return aggregator.Throughput(rep.TotalSucceeded, updateBytes, rep.FinalVTime)
}

// InfraPlan sizes the cloud-side aggregation service against availability
// load swings (Fig 2): the worker pool must absorb the weekly peak, not the
// mean, or coexisting FL jobs contend (§3.5 "Infrastructure Requirements").
type InfraPlan struct {
	MeanUpdatesPerSec float64
	PeakUpdatesPerSec float64
	// PeakToMean is the provisioning multiplier implied by the trace.
	PeakToMean float64
	// Workers is the worker count needed at peak given per-worker capacity.
	Workers int
}

// PlanInfra combines a job's mean update rate with the availability trace's
// load shape to size the worker pool.
func PlanInfra(rep *fedsim.Report, series availability.Series, updatesPerWorkerSec float64) (InfraPlan, error) {
	if rep == nil {
		return InfraPlan{}, fmt.Errorf("forecast: nil report")
	}
	if updatesPerWorkerSec <= 0 {
		return InfraPlan{}, fmt.Errorf("forecast: worker capacity must be positive, got %v", updatesPerWorkerSec)
	}
	if rep.FinalVTime <= 0 || len(series.Normalized) == 0 {
		return InfraPlan{}, fmt.Errorf("forecast: need elapsed time and a load series")
	}
	mean := float64(rep.TotalSucceeded) / rep.FinalVTime
	var sum float64
	peakNorm := 0.0
	for _, v := range series.Normalized {
		sum += v
		if v > peakNorm {
			peakNorm = v
		}
	}
	meanNorm := sum / float64(len(series.Normalized))
	plan := InfraPlan{MeanUpdatesPerSec: mean}
	if meanNorm > 0 {
		plan.PeakToMean = peakNorm / meanNorm
	}
	plan.PeakUpdatesPerSec = mean * plan.PeakToMean
	plan.Workers = int(math.Ceil(plan.PeakUpdatesPerSec / updatesPerWorkerSec))
	if plan.Workers < 1 {
		plan.Workers = 1
	}
	return plan, nil
}
