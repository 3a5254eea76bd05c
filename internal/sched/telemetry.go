package sched

import (
	"math"
	"time"
)

// Telemetry is one device's measured serving history: EWMA link
// throughput in each direction plus the reported local-task duration.
// It is the census/decision value the scheduler reads; the registry stores
// the compact TelemetryState per device and expands it at snapshot time.
type Telemetry struct {
	// UpBps is the EWMA uplink throughput (bytes/second) from
	// server-observed /v1/update body-transfer timings.
	UpBps float64
	// DownBps is the EWMA downlink throughput (bytes/second) from the
	// task-download timings devices report with their updates.
	DownBps float64
	// TaskSec is the EWMA reported local-training duration in seconds.
	TaskSec float64
	// Sample counts gate how much trust each EWMA has earned.
	UpSamples, DownSamples, TaskSamples int
	// LastSample is when the most recent observation (any direction)
	// landed — the decay clock. Zero means never observed.
	LastSample time.Time
}

// minTransfer floors an observed transfer duration: loopback and
// in-process tests can observe ~0ns for a real payload, and a zero
// duration would turn one observation into an infinite-bandwidth EWMA
// that poisons the estimate forever.
const minTransfer = 100 * time.Microsecond

// maxObservedBps caps a single observation's implied throughput (10
// Gbit/s — beyond any edge device's real link). Downlink observations
// are device-reported and therefore forgeable; without the cap one
// absurd bytes/duration pair would pin the EWMA so high the device
// passes every deadline gate and lands in the default cohort no matter
// what its link actually does.
const maxObservedBps = 1.25e9

func clampBps(x float64) float64 {
	if x > maxObservedBps {
		return maxObservedBps
	}
	return x
}

// ewma folds sample x into the running mean: the first observation seeds
// the series, later ones blend with weight alpha.
func ewma(prev, x, alpha float64, samples int) float64 {
	if samples == 0 {
		return x
	}
	return alpha*x + (1-alpha)*prev
}

// maxDecaySteps caps the decay shift; 32 halvings zero any realistic
// sample count, and an unbounded shift of a huge idle/ttl ratio would be
// undefined behavior territory for the compiler's shift lowering.
const maxDecaySteps = 32

// TelemetryState is the storage-compact form of Telemetry the registry
// embeds per device: the same EWMAs and trust counters packed into 32
// bytes (float32 means, uint16 sample counts, a unix-nano decay clock)
// against Telemetry's 72 — less than half the per-device telemetry cost
// at a million-device census. float32 keeps ~7 significant digits,
// well inside the EWMA's own measurement noise; sample counts saturate
// at 65535, which the trust gates cannot distinguish from infinity.
// Telemetry stays the census/decision value type; the registry expands
// state to it at snapshot time.
type TelemetryState struct {
	lastSampleNS            int64
	upBps, downBps, taskSec float32
	upN, downN, taskN       uint16
}

// Touch stamps the decay clock (a fresh observation of any kind).
func (t *TelemetryState) Touch(now time.Time) { t.lastSampleNS = now.UnixNano() }

// ObserveUplink folds one observed /v1/update transfer (bytes moved over
// d) into the uplink EWMA.
func (t *TelemetryState) ObserveUplink(bytes int, d time.Duration, alpha float64) {
	if bytes <= 0 {
		return
	}
	if d < minTransfer {
		d = minTransfer
	}
	t.upBps = float32(ewma(float64(t.upBps), clampBps(float64(bytes)/d.Seconds()), alpha, int(t.upN)))
	t.upN = satInc(t.upN)
}

// ObserveDownlink folds one reported task-download transfer into the
// downlink EWMA.
func (t *TelemetryState) ObserveDownlink(bytes int, d time.Duration, alpha float64) {
	if bytes <= 0 {
		return
	}
	if d < minTransfer {
		d = minTransfer
	}
	t.downBps = float32(ewma(float64(t.downBps), clampBps(float64(bytes)/d.Seconds()), alpha, int(t.downN)))
	t.downN = satInc(t.downN)
}

// ObserveTask folds one reported local-training duration into the
// task-duration EWMA.
func (t *TelemetryState) ObserveTask(d time.Duration, alpha float64) {
	if d <= 0 {
		return
	}
	t.taskSec = float32(ewma(float64(t.taskSec), d.Seconds(), alpha, int(t.taskN)))
	t.taskN = satInc(t.taskN)
}

// Distrust zeroes the earned sample counts while keeping the EWMA values —
// the same degradation Decayed applies to a long-idle device, but
// immediate. The commit pipeline applies it to devices whose updates the
// norm screen rejected: a device submitting outlier updates forfeits the
// trust its measurements earned (it drops out of the measured cohort map
// and the optimistic deadline gate), yet its next honest transfers still
// blend against the old means rather than a cold seed.
func (t *TelemetryState) Distrust() { t.upN, t.downN, t.taskN = 0, 0, 0 }

// Telemetry expands the compact state to the census/decision value form.
func (t TelemetryState) Telemetry() Telemetry {
	out := Telemetry{
		UpBps:       float64(t.upBps),
		DownBps:     float64(t.downBps),
		TaskSec:     float64(t.taskSec),
		UpSamples:   int(t.upN),
		DownSamples: int(t.downN),
		TaskSamples: int(t.taskN),
	}
	if t.lastSampleNS != 0 {
		out.LastSample = time.Unix(0, t.lastSampleNS)
	}
	return out
}

func satInc(n uint16) uint16 {
	if n == math.MaxUint16 {
		return n
	}
	return n + 1
}

// Decayed ages the telemetry toward "unmeasured": every full ttl elapsed
// since the last observation halves each EWMA's earned sample count (the
// trust gates key on counts, not values). A device idle for a week stops
// clearing MinSamples, so its stale bandwidth verdict no longer pins its
// cohort or its deadline-gate estimate — it degrades to the unmeasured
// fallback (radio label, optimistic admission) exactly like a device
// never observed, and re-earns trust from fresh transfers when it
// returns. The EWMA values themselves are kept: the first post-idle
// observation still blends against the old mean instead of a cold seed.
// ttl <= 0 disables decay; the zero Telemetry passes through unchanged.
func (t Telemetry) Decayed(now time.Time, ttl time.Duration) Telemetry {
	if ttl <= 0 || t.LastSample.IsZero() {
		return t
	}
	idle := now.Sub(t.LastSample)
	if idle < ttl {
		return t
	}
	steps := idle / ttl
	if steps > maxDecaySteps {
		steps = maxDecaySteps
	}
	t.UpSamples >>= uint(steps)
	t.DownSamples >>= uint(steps)
	t.TaskSamples >>= uint(steps)
	return t
}
