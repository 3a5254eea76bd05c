// Package sched is the coordinator's scheduling plane: the layer between
// the device registry and the round state machine that turns *measured*
// per-device capability into assignment decisions.
//
// The paper's central operational claim (§3.2, §4.1, Table 1) is that
// cross-device FL lives or dies on device availability and eligibility:
// which devices are reachable, how fast their links actually are, and
// whether a task handed out now can finish before the round deadline.
// Self-reported labels are a poor proxy — a "WiFi" session on a congested
// access point moves bytes slower than a good LTE link — so this package
// keys every decision on telemetry the serving path observes directly:
//
//   - per-device EWMA uplink throughput from the server-observed
//     /v1/update body-transfer timings;
//   - per-device EWMA downlink throughput from the task-download timings
//     devices report back with their updates;
//   - per-device EWMA task duration from reported local-training time.
//
// From a periodic fleet census over that telemetry the Scheduler derives
// three decisions the coordinator consumes on its serving paths:
//
//  1. *Deadline gating* — a device whose estimated task time (the paper's
//     taskDuration(k) = t·E·|Dk| + 2M/N with N measured instead of
//     sampled) cannot fit in the round's remaining window is not
//     assigned, instead of being handed a task it will straggle on.
//  2. *Measured-bandwidth cohorts* — a CohortMap that replaces the static
//     WiFi→default / cellular→lowbw transport rule: devices whose
//     measured downlink sits below the low-bandwidth threshold get the
//     lowbw wire policy regardless of their radio label, and fast
//     "cellular" devices are promoted to the default policy.
//  3. *Deadline-driven over-commit* — sync rounds are provisioned with an
//     assignment multiplier computed from the fleet's measured straggler
//     tail (the fraction of eligible devices whose estimate fits the
//     deadline), so rounds close on time without a hand-tuned constant.
//
// The Scheduler is lock-free on the serving path: decisions read one
// atomically swapped fleet-view snapshot, rebuilt off the hot path by the
// coordinator's watchdog.
package sched

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"flint/internal/codec"
	"flint/internal/transport"
)

// The scheduling plane's fixed tuning. Each has one value in every
// deployment, so none is a setting.
const (
	// alpha is the EWMA smoothing factor for telemetry observations:
	// higher weighs recent transfers more.
	alpha = 0.3
	// LowBWBps is the measured-downlink threshold (1.5 Mbit/s, in
	// bytes/second) below which a device is mapped to the low-bandwidth
	// cohort.
	LowBWBps = 187_500
	// MaxOverCommit caps the deadline-driven assignment multiplier so a
	// mostly-offline fleet cannot demand unbounded duplicate work.
	MaxOverCommit = 3.0
	// deadlineSlack is the fraction of the remaining round window a task
	// estimate must fit inside to pass the gate (headroom for the model
	// being an estimate).
	deadlineSlack = 0.8
	// minCensus is how many measured eligible devices a rebuild needs
	// before the over-commit scale moves off the configured base — the
	// fleet-level analogue of MinSamples, so one cold-start straggler
	// cannot triple every round's assignment budget.
	minCensus = 8
	// TelemetryTTL ages idle devices' telemetry toward "unmeasured":
	// every full TTL without a fresh observation halves each EWMA's
	// earned sample count (Telemetry.Decayed), so a device idle past a
	// few TTLs falls below MinSamples and degrades to the unmeasured
	// fallback instead of being pinned to a stale bandwidth verdict —
	// the cohort map's analogue of the deadline gate's probeEvery
	// re-measurement.
	TelemetryTTL = 10 * time.Minute
	// probeEvery is the consecutive deadline-gate denial streak after
	// which a device's requests are admitted as re-measurement probes
	// (until fresh telemetry resets the streak). Telemetry is only
	// refreshed on the update path, which a gated device never reaches
	// — without probes a device once measured slow would stay excluded
	// forever even after its link improved. The threshold stays armed
	// once crossed, so a probe that loses the assignment race (full
	// round budget) retries on the next request instead of waiting out
	// another full streak.
	probeEvery = 8
)

// Config parameterizes the scheduling plane.
type Config struct {
	// MinSamples is how many downlink observations a device needs before
	// its measurement overrides its radio label in the cohort map.
	// Default 2 — one sample can be an artifact of a cold connection.
	MinSamples int
	// RebuildEvery is how often the coordinator refreshes the fleet view
	// (cohort map, over-commit, histograms). Default 2s.
	RebuildEvery time.Duration
	// TimeCompression is the virtual-time load plane's clock contract:
	// how many *virtual* seconds elapse per wall second (internal/vload's
	// compression factor). Devices driven by a compressed virtual clock
	// report transfer and training durations in virtual time, so their
	// telemetry EWMAs equal the true simulated link rates — but the round
	// deadline the gate and the over-commit model reason about is wall
	// clock. Dividing every duration estimate by the compression factor
	// maps it into the wall domain: with the server's RoundDeadline set
	// to (virtual deadline)/S, the gate decision E/S <= (D/S)·slack is
	// exactly the wall-clock fleet's E <= D·slack, so cohort remapping
	// and deadline gating match the uncompressed fleet decision-for-
	// decision. Default 1 (production: wall time IS virtual time).
	TimeCompression float64
}

// WithDefaults fills zero fields and validates the result.
func (c Config) WithDefaults() (Config, error) {
	if c.MinSamples <= 0 {
		c.MinSamples = 2
	}
	if c.RebuildEvery <= 0 {
		c.RebuildEvery = 2 * time.Second
	}
	if c.TimeCompression == 0 {
		c.TimeCompression = 1
	}
	if c.TimeCompression < 1 {
		return c, fmt.Errorf("sched: time compression %v below 1", c.TimeCompression)
	}
	return c, nil
}

// DeviceSample is one device's telemetry as seen by a fleet census: the
// registry hands the scheduler a slice of these at every rebuild.
type DeviceSample struct {
	ID int64
	// WiFi is the radio label from the device's last check-in — the
	// fallback cohort signal for unmeasured devices.
	WiFi bool
	// Eligible is whether the device passed the participation criteria
	// at its last check-in; only eligible devices shape over-commit (an
	// ineligible device was never going to be assigned).
	Eligible bool
	Tel      Telemetry
}

// fleetView is one immutable rebuild result; decisions read it through a
// single atomic pointer load.
type fleetView struct {
	overCommit float64
	// cohorts maps measured devices to their bandwidth-derived cohort;
	// devices absent from the map fall back to the radio label.
	cohorts map[int64]string
	report  Report
}

// Scheduler derives assignment decisions from fleet telemetry. Decision
// methods (Cohort, Admit, OverCommit) are lock-free snapshot reads, safe
// for concurrent use with Rebuild.
type Scheduler struct {
	cfg  Config
	view atomic.Pointer[fleetView]
}

// New validates cfg and returns a scheduler holding an empty fleet view
// (every decision degrades to the unmeasured fallback until the first
// Rebuild).
func New(cfg Config) (*Scheduler, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg}
	s.view.Store(&fleetView{
		overCommit: 0,
		cohorts:    map[int64]string{},
		report:     Report{Enabled: true},
	})
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Cohort returns the device's transport cohort: the measured-bandwidth
// mapping when the device has enough downlink samples, else "" — the
// caller falls back to the radio label (exactly the pre-scheduler rule),
// so an unmeasured fleet behaves as before.
func (s *Scheduler) Cohort(id int64) string {
	return s.view.Load().cohorts[id]
}

// TaskEstimate is the per-assignment cost model input: the byte volumes
// the candidate task would move in each direction.
type TaskEstimate struct {
	DownBytes int
	UpBytes   int
}

// EstimateSeconds evaluates the paper's task-duration model for one
// device with measured throughput: download + local training + upload.
// ok is false until both link EWMAs have earned MinSamples observations
// — the same trust gate the cohort map applies, so a single
// cold-connection artifact can neither deny a device at the deadline
// gate nor skew the over-commit scale and status quantiles. Callers
// treat !ok as "unmeasured" and admit optimistically.
//
// The returned estimate is in *wall* seconds: telemetry durations arrive
// in the device clock's domain (virtual time under a compressed load
// plane), and the TimeCompression divide maps the telemetry-domain
// estimate onto the wall-clock deadline window the gate compares against.
func (s *Scheduler) EstimateSeconds(tel Telemetry, est TaskEstimate) (float64, bool) {
	if tel.DownSamples < s.cfg.MinSamples || tel.UpSamples < s.cfg.MinSamples {
		return 0, false
	}
	sec := float64(est.DownBytes)/tel.DownBps + float64(est.UpBytes)/tel.UpBps
	if tel.TaskSamples >= s.cfg.MinSamples {
		// The training term earns trust the same way the link EWMAs do:
		// one absurd (screened-but-extreme) reported duration must not
		// gate a device for the many probe cycles an EWMA takes to
		// forget it.
		sec += tel.TaskSec
	}
	return sec / s.cfg.TimeCompression, true
}

// Admit is the deadline gate: it reports whether the device's estimated
// task duration fits inside the remaining round window (scaled by
// deadlineSlack). Devices without telemetry are admitted — the gate
// only rejects devices *measured* to be too slow.
func (s *Scheduler) Admit(tel Telemetry, remaining time.Duration, est TaskEstimate) bool {
	if remaining <= 0 {
		// A non-positive window is the round's problem (its own deadline
		// check denies), not the device's.
		return true
	}
	sec, ok := s.EstimateSeconds(tel, est)
	if !ok {
		return true
	}
	return sec <= remaining.Seconds()*deadlineSlack
}

// ProbeDue reports whether a device's nth consecutive deadline-gate
// denial should be admitted anyway as a re-measurement probe: the
// streak has reached the probeEvery threshold and no fresh telemetry
// has reset it yet.
func (s *Scheduler) ProbeDue(n int) bool { return n >= probeEvery }

// OverCommit returns the sync-round assignment multiplier: the configured
// base scaled up by the measured on-time fraction of the eligible fleet
// (a fleet where only half the devices can finish on time needs twice the
// assignments to collect the same target), clamped to MaxOverCommit.
// Before the first rebuild — or with no measured devices — it returns the
// base unchanged.
func (s *Scheduler) OverCommit(base float64) float64 {
	v := s.view.Load()
	if v.overCommit == 0 {
		return base
	}
	oc := base * v.overCommit
	if oc > MaxOverCommit {
		oc = MaxOverCommit
	}
	if oc < base {
		oc = base
	}
	return oc
}

// Report returns the current fleet view's observability snapshot (the
// /v1/status scheduler section).
func (s *Scheduler) Report() Report { return s.view.Load().report }

// Rebuild recomputes the fleet view from a registry census: the
// bandwidth-derived cohort map, the deadline-driven over-commit scale,
// and the per-cohort histograms. deadline is the full round window the
// over-commit model provisions for; ests gives the typical task's byte
// volume per cohort name (a lowbw device moves its cohort's sparse
// encodings, not the default cohort's dense ones — costing everyone
// with one estimate would count every slow-cohort device as a straggler
// it isn't); a missing cohort falls back to the default cohort's entry.
// O(fleet) — call it from a maintenance loop, never a serving path.
func (s *Scheduler) Rebuild(devs []DeviceSample, deadline time.Duration, ests map[string]TaskEstimate) {
	next := &fleetView{
		cohorts: make(map[int64]string, len(devs)),
		report: Report{
			Enabled: true,
			Cohorts: map[string]*CohortStats{
				transport.CohortDefault: newCohortStats(),
				transport.CohortLowBW:   newCohortStats(),
			},
		},
	}
	var estimates []float64
	onTime, measuredEligible := 0, 0
	window := deadline.Seconds() * deadlineSlack
	for _, d := range devs {
		labelCohort := transport.LabelCohort(d.WiFi)
		cohort := labelCohort
		if d.Tel.DownSamples >= s.cfg.MinSamples {
			// Measured: bandwidth decides, the radio label does not.
			cohort = transport.CohortDefault
			if d.Tel.DownBps < LowBWBps {
				cohort = transport.CohortLowBW
			}
			next.cohorts[d.ID] = cohort
			next.report.Measured++
			if cohort != labelCohort {
				next.report.Remapped++
			}
			next.report.Cohorts[cohort].observe(d.Tel.DownBps)
		} else {
			next.report.Cohorts[cohort].Devices++
		}
		if d.Eligible {
			est, ok := ests[cohort]
			if !ok {
				est = ests[transport.CohortDefault]
			}
			if sec, ok := s.EstimateSeconds(d.Tel, est); ok {
				measuredEligible++
				estimates = append(estimates, sec)
				if sec <= window {
					onTime++
				}
			}
		}
	}
	next.report.Devices = len(devs)
	next.report.Footprint.SchedulerBytes = schedulerFootprint(devs, len(next.cohorts))
	if len(devs) > 0 {
		next.report.Footprint.SchedulerBytesPerDev =
			float64(next.report.Footprint.SchedulerBytes) / float64(len(devs))
	}
	if len(estimates) > 0 {
		sort.Float64s(estimates)
		next.report.EstTaskP50Sec = quantile(estimates, 0.50)
		next.report.EstTaskP90Sec = quantile(estimates, 0.90)
		next.report.EstTaskP99Sec = quantile(estimates, 0.99)
	}
	if measuredEligible > 0 {
		next.report.OnTimeFraction = float64(onTime) / float64(measuredEligible)
		// The scale only moves once the census clears the fleet-level
		// floor — a cold-start fleet whose first measured device happens
		// to straggle must not triple every round's budget off n=1.
		if measuredEligible >= minCensus {
			frac := next.report.OnTimeFraction
			// The scale is the inverse on-time fraction: collecting K
			// updates from a fleet where only frac finish on time takes
			// K/frac assignments in expectation. Floor the fraction so a
			// transient all-slow census cannot explode the scale past
			// the cap's reach.
			if frac < 1/MaxOverCommit {
				frac = 1 / MaxOverCommit
			}
			next.overCommit = 1 / frac
		}
	}
	next.report.OverCommitScale = next.overCommit
	s.view.Store(next)
}

// mapEntryOverheadBytes approximates Go's per-entry map bookkeeping
// (tophash byte, load-factor headroom, overflow-bucket amortization) for
// footprint accounting. An estimate, deliberately round.
const mapEntryOverheadBytes = 16

// schedulerFootprint estimates the rebuild working set: the census
// buffer's full capacity (the coordinator reuses it across rebuilds, so
// capacity — not length — is what stays resident) plus the cohort map.
func schedulerFootprint(devs []DeviceSample, cohortEntries int) int64 {
	const sampleBytes = int64(unsafe.Sizeof(DeviceSample{}))
	// A cohort entry is an int64 key plus a string header; the string
	// bytes themselves are the two shared cohort-name constants.
	const cohortEntryBytes = 8 + 16 + mapEntryOverheadBytes
	return int64(cap(devs))*sampleBytes + int64(cohortEntries)*cohortEntryBytes
}

// quantile reads the q-quantile from an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WireSizeEstimate approximates the encoded byte volume of a dim-element
// vector under a scheme — the scheduling cost model's input. It mirrors
// the codec's framing (16-byte header) and per-scheme payload layout
// closely enough for throughput math; it is not an exact wire size.
func WireSizeEstimate(s codec.Scheme, dim int) int {
	const header = 16
	switch s.Kind {
	case codec.KindRawF64:
		return header + 8*dim
	case codec.KindF32:
		return header + 4*dim
	case codec.KindQ8:
		// ~1 byte/elem plus per-chunk scale overhead.
		return header + dim + dim/64 + 16
	case codec.KindTopK:
		k := s.TopK
		if k <= 0 {
			k = dim / 32
			if k < 1 {
				k = 1
			}
		}
		if k > dim {
			k = dim
		}
		// [u32 count][k×u32 index][k×f32 value] — 4+8k payload bytes,
		// matching encodeTopK exactly.
		return header + 4 + 8*k
	default:
		return header + 8*dim
	}
}
