// Package flint is a reproduction of "FLINT: A Platform for Federated
// Learning Integration" (MLSys 2023): a device-cloud collaborative FL
// platform that integrates with a centralized ML stack and provides the
// tooling to decide whether — and how — to move a production model to
// cross-device federated learning.
//
// The package is a facade over the internal subsystems:
//
//   - real-world measurement: on-device benchmarks (Table 5, Fig 4),
//     availability traces and participation criteria (Table 1, Fig 2),
//     device population modeling (Fig 1);
//   - the proxy data generator: per-client partitions, their Table 2
//     statistics and the executor file layout (Table 2, Fig 5);
//   - the experimental framework: a virtual-clock leader/executor simulator
//     with synchronous FedAvg and asynchronous FedBuff (Table 3, Figs 7/8/10);
//   - resource forecasting (§3.5) and the decision workflow (Fig 9);
//   - privacy/security evaluation: FL-DP, the TEE aggregator's load,
//     poisoning and robust aggregation (§3.6).
//
// See examples/ for runnable entry points and DESIGN.md for the full system
// inventory.
package flint

import (
	"flint/internal/availability"
	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/fedsim"
	"flint/internal/model"
	"flint/internal/network"
	"flint/internal/partition"
)

// Case-study domains (§4).
type (
	// Domain identifies a case-study application (ads, messaging, search).
	Domain = core.Domain
	// Scale sizes an experiment run.
	Scale = core.Scale
	// Spec holds a domain's modeling choices.
	Spec = core.Spec
	// CaseStudyResult is one Table 4 row.
	CaseStudyResult = core.CaseStudyResult
)

// Re-exported domain constants.
const (
	Ads       = core.Ads
	Messaging = core.Messaging
	Search    = core.Search
)

// Simulation types (§3.4).
type (
	// SimConfig drives one simulation job.
	SimConfig = fedsim.Config
	// SimEnvironment carries the measured real-world inputs.
	SimEnvironment = fedsim.Environment
	// SimReport is the simulation output.
	SimReport = fedsim.Report
	// Model is a trainable on-device architecture.
	Model = model.Model
	// ModelKind identifies a Table 5 architecture.
	ModelKind = model.Kind
	// Criteria filters sessions into availability traces.
	Criteria = availability.Criteria
	// DeviceProfile describes one device model's capability.
	DeviceProfile = device.Profile
	// Table5Row is one row of the on-device benchmark table.
	Table5Row = device.Table5Row
	// ProxyStats is Table 2 metadata for a proxy dataset.
	ProxyStats = partition.Stats
	// Generator produces per-client proxy shards.
	Generator = data.Generator
)

// Model zoo kinds (Table 5).
const (
	ModelA = model.KindA
	ModelB = model.KindB
	ModelC = model.KindC
	ModelD = model.KindD
	ModelE = model.KindE
)

// SpecFor returns a domain's default modeling spec.
func SpecFor(d Domain) (Spec, error) { return core.SpecFor(d) }

// BuildEnvironment assembles the simulation inputs for a domain.
func BuildEnvironment(spec Spec, scale Scale, seed int64) (*SimEnvironment, Generator, error) {
	return core.BuildEnvironment(spec, scale, seed)
}

// AsyncConfig builds a domain's FedBuff job configuration.
func AsyncConfig(spec Spec, scale Scale, seed int64) SimConfig {
	return core.AsyncConfig(spec, scale, seed)
}

// RunSimulation executes one FL simulation job.
func RunSimulation(cfg SimConfig, env *SimEnvironment) (*SimReport, error) {
	return fedsim.Run(cfg, env)
}

// RunCaseStudy executes one domain's full §4 evaluation (Table 4 row).
func RunCaseStudy(d Domain, scale Scale, seed int64) (*CaseStudyResult, error) {
	return core.RunCaseStudy(d, scale, seed)
}

// NewModel constructs a Table 5 architecture.
func NewModel(kind ModelKind, seed int64) (Model, error) { return model.New(kind, seed) }

// BenchDevicePool returns the 27-device benchmark pool (§3.2).
func BenchDevicePool() []DeviceProfile { return device.BenchPool() }

// RunDeviceBenchmarks produces Table 5 over the given pool and record count.
func RunDeviceBenchmarks(pool []DeviceProfile, records int, seed int64) ([]Table5Row, error) {
	return device.Table5(pool, records, seed)
}

// DefaultBandwidth is the edge bandwidth model used in task durations.
var DefaultBandwidth = network.Default
