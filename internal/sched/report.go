package sched

import "strconv"

// bandwidthEdgesMbps are the measured-downlink histogram bucket edges
// (log-2 spaced, in Mbit/s): bucket i counts devices in
// [edge[i-1], edge[i]), with an open bucket past the last edge.
var bandwidthEdgesMbps = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// BucketLabels names the histogram buckets, aligned with the Counts slice
// of a CohortStats histogram.
func BucketLabels() []string {
	labels := make([]string, 0, len(bandwidthEdgesMbps)+1)
	prev := 0.0
	for _, e := range bandwidthEdgesMbps {
		labels = append(labels, formatRange(prev, e))
		prev = e
	}
	return append(labels, formatRange(prev, 0))
}

func formatRange(lo, hi float64) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	switch {
	case hi == 0:
		return f(lo) + "+Mbps"
	case lo == 0:
		return "<" + f(hi) + "Mbps"
	default:
		return f(lo) + "-" + f(hi) + "Mbps"
	}
}

// CohortStats is one cohort's slice of the fleet view: how many devices
// the cohort map places there and the distribution of their measured
// downlink bandwidth.
type CohortStats struct {
	// Devices counts cohort members (measured devices placed by
	// bandwidth plus unmeasured ones placed by radio label).
	Devices int `json:"devices"`
	// BandwidthHist counts *measured* members per bandwidth bucket; see
	// BucketLabels for the bucket boundaries. Unmeasured devices have no
	// bandwidth to bucket and appear only in Devices.
	BandwidthHist []int `json:"bandwidth_hist"`
}

func newCohortStats() *CohortStats {
	return &CohortStats{BandwidthHist: make([]int, len(bandwidthEdgesMbps)+1)}
}

// observe buckets one measured device's downlink throughput.
func (c *CohortStats) observe(downBps float64) {
	c.Devices++
	mbps := downBps * 8 / 1e6
	for i, e := range bandwidthEdgesMbps {
		if mbps < e {
			c.BandwidthHist[i]++
			return
		}
	}
	c.BandwidthHist[len(bandwidthEdgesMbps)]++
}

// Report is the scheduler's observability snapshot — the /v1/status
// "scheduler" section.
type Report struct {
	// Enabled is always true: measured scheduling has no off switch. The
	// key stays so status consumers keep their shape.
	Enabled bool `json:"enabled"`
	// Devices is the census size of the last rebuild; Measured counts
	// devices with enough downlink samples for bandwidth cohorting;
	// Remapped counts measured devices whose bandwidth cohort differs
	// from their radio label (the fast-cellular / slow-WiFi corrections).
	Devices  int `json:"devices"`
	Measured int `json:"measured"`
	Remapped int `json:"remapped"`
	// BucketLabelsNote: cohort histograms index into BucketLabels().
	Cohorts map[string]*CohortStats `json:"cohorts,omitempty"`
	// Estimated task-duration quantiles over the measured eligible fleet
	// (the straggler tail the over-commit model provisions for).
	EstTaskP50Sec float64 `json:"est_task_p50_sec,omitempty"`
	EstTaskP90Sec float64 `json:"est_task_p90_sec,omitempty"`
	EstTaskP99Sec float64 `json:"est_task_p99_sec,omitempty"`
	// OnTimeFraction is the measured share of eligible devices whose
	// estimate fits the deadline window; OverCommitScale is the
	// resulting multiplier applied to the configured base (0 until a
	// rebuild has measured data).
	OnTimeFraction  float64 `json:"on_time_fraction,omitempty"`
	OverCommitScale float64 `json:"over_commit_scale,omitempty"`
	// Footprint is the serving tier's per-device memory accounting —
	// how footprint regressions become visible without a profiler. The
	// scheduler half is filled at rebuild; the registry half is stamped
	// in by the coordinator when it assembles /v1/status.
	Footprint Footprint `json:"footprint"`
}

// Footprint is the memory cost of tracking one device across the serving
// tier: the registry's resident per-device state and the scheduler's
// rebuild working set (census buffer plus cohort map). The byte figures
// are layout-derived estimates (struct sizes plus amortized map-bucket
// overhead), not heap-profiler truth — stable enough to gate on, cheap
// enough to compute on every status request.
type Footprint struct {
	// Devices is the device count the byte figures are amortized over
	// (the registry's known-device census).
	Devices int `json:"devices"`
	// RegistryBytes estimates the registry's resident device state.
	RegistryBytes       int64   `json:"registry_bytes"`
	RegistryBytesPerDev float64 `json:"registry_bytes_per_device"`
	// SchedulerBytes estimates the rebuild working set retained between
	// fleet censuses (the reused sample buffer and the cohort map).
	SchedulerBytes       int64   `json:"scheduler_bytes"`
	SchedulerBytesPerDev float64 `json:"scheduler_bytes_per_device"`
}
