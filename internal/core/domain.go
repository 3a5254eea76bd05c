// Package core assembles the FLINT platform components into the paper's
// experiments: the three case-study domains (§4: advertising, messaging,
// search), the FedAvg-vs-FedBuff comparison of Table 3 and the FL-vs-
// centralized comparison of Table 4. flint-experiments prints them beside
// the paper's numbers; testdata/transcripts/ holds its output.
package core

import (
	"fmt"

	"flint/internal/availability"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/fedsim"
	"flint/internal/model"
	"flint/internal/network"
)

// Domain identifies a case-study application.
type Domain string

// The §4 case studies.
const (
	Ads       Domain = "ads"
	Messaging Domain = "messaging"
	Search    Domain = "search"
)

// Domains lists the case studies in paper order.
var Domains = []Domain{Ads, Messaging, Search}

// Scale sizes an experiment run; tests use Small, benches use Medium.
type Scale struct {
	Clients     int
	TestRecords int
	TraceDays   int
	MaxRounds   int
	EvalEvery   int
	// MaxShardExamples caps per-client training records for runtime
	// control (0 = all).
	MaxShardExamples int
	// SessionsPerDay overrides the app's engagement profile (0 = the
	// DefaultLogConfig rate); denser sessions mean faster client arrival
	// and shorter rounds.
	SessionsPerDay float64
	// Bandwidth optionally overrides the default edge bandwidth model —
	// congested networks stretch task durations, the regime where
	// FedBuff's staleness tolerance pays off (Table 3).
	Bandwidth *network.BandwidthModel
}

// SmallScale keeps unit tests fast.
var SmallScale = Scale{Clients: 150, TestRecords: 1500, TraceDays: 7, MaxRounds: 25, EvalEvery: 5, MaxShardExamples: 200}

// MediumScale drives the benchmark harness. The round budget matters: the
// FL-vs-centralized gap closes from ≈−10% at 20 rounds to ≈−0.5% by 200
// rounds (Table 4's parity needs the full budget).
var MediumScale = Scale{Clients: 800, TestRecords: 5000, TraceDays: 14, MaxRounds: 200, EvalEvery: 20, MaxShardExamples: 300}

// Spec holds one domain's modeling choices, mirroring §4's selections.
type Spec struct {
	Domain Domain
	// Kind is the mobile-ready architecture picked in §4 (ads → model B,
	// messaging → model C, search → model A).
	Kind   model.Kind
	Metric model.Metric
	// LocalEpochs/BatchSize/LR are the client-side hyperparameters.
	LocalEpochs int
	BatchSize   int
	Schedule    model.Schedule
	// ServerLR is the FedBuff server step size; sparse-embedding models
	// (messaging) need >1 to counter buffer-mean dilution of embedding
	// rows that only a few clients touch per round.
	ServerLR float64
	// Criteria is the participation filter of §4.1.
	Criteria availability.Criteria
	// CentralizedEpochs trains the offline baseline.
	CentralizedEpochs int
}

// SpecFor returns the domain's default spec.
func SpecFor(d Domain) (Spec, error) {
	base := availability.Criteria{RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true}
	switch d {
	case Ads:
		return Spec{
			Domain: d, Kind: model.KindB, Metric: model.MetricAUPR,
			LocalEpochs: 1, BatchSize: 16,
			Schedule:          model.ExpDecayLR{Base: 0.3, Rate: 0.9, DecaySteps: 20, Floor: 0.02},
			Criteria:          base,
			CentralizedEpochs: 3,
		}, nil
	case Messaging:
		return Spec{
			Domain: d, Kind: model.KindC, Metric: model.MetricAUPR,
			LocalEpochs: 2, BatchSize: 16,
			Schedule:          model.ExpDecayLR{Base: 0.25, Rate: 0.9, DecaySteps: 25, Floor: 0.05},
			ServerLR:          4,
			Criteria:          base,
			CentralizedEpochs: 8,
		}, nil
	case Search:
		return Spec{
			Domain: d, Kind: model.KindA, Metric: model.MetricNDCG,
			LocalEpochs: 2, BatchSize: 8,
			Schedule:          model.ExpDecayLR{Base: 0.08, Rate: 0.92, DecaySteps: 25, Floor: 0.01},
			Criteria:          base,
			CentralizedEpochs: 3,
		}, nil
	default:
		return Spec{}, fmt.Errorf("core: unknown domain %q", d)
	}
}

// NewGenerator builds the domain's data generator at the given scale.
func NewGenerator(d Domain, scale Scale, seed int64) (data.Generator, error) {
	switch d {
	case Ads:
		return data.NewAdsGenerator(data.DefaultAdsConfig(scale.Clients, seed))
	case Messaging:
		return data.NewMessagingGenerator(data.DefaultMessagingConfig(scale.Clients, seed))
	case Search:
		return data.NewSearchGenerator(data.DefaultSearchConfig(scale.Clients, seed))
	default:
		return nil, fmt.Errorf("core: unknown domain %q", d)
	}
}

// BuildEnvironment assembles the full §3.4 input set for a domain: proxy
// shards, criteria-filtered availability trace, on-device time distribution
// and bandwidth model.
func BuildEnvironment(spec Spec, scale Scale, seed int64) (*fedsim.Environment, data.Generator, error) {
	gen, err := NewGenerator(spec.Domain, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	logCfg := availability.DefaultLogConfig(scale.Clients, seed+1)
	logCfg.Days = scale.TraceDays
	if scale.SessionsPerDay > 0 {
		logCfg.SessionsPerDay = scale.SessionsPerDay
	}
	log, err := availability.GenerateLog(logCfg)
	if err != nil {
		return nil, nil, err
	}
	eligible := availability.Apply(log, spec.Criteria)
	trace := availability.BuildTrace(eligible)
	times, err := device.NewTimeDistribution(spec.Kind, device.BenchPool())
	if err != nil {
		return nil, nil, err
	}
	m, err := model.New(spec.Kind, 0)
	if err != nil {
		return nil, nil, err
	}
	bw := network.Default
	if scale.Bandwidth != nil {
		bw = *scale.Bandwidth
	}
	env := &fedsim.Environment{
		Shards:      fedsim.GeneratorProvider{G: gen},
		Trace:       trace,
		Times:       times,
		Bandwidth:   bw,
		EvalSet:     gen.TestSet(scale.TestRecords),
		UpdateBytes: m.Cost().TransferBytes(),
	}
	return env, gen, nil
}

// AsyncConfig builds the domain's FedBuff job config.
func AsyncConfig(spec Spec, scale Scale, seed int64) fedsim.Config {
	serverLR := spec.ServerLR
	if serverLR <= 0 {
		serverLR = 1
	}
	return fedsim.Config{
		Mode:             fedsim.Async,
		ModelKind:        spec.Kind,
		Seed:             seed,
		LocalEpochs:      spec.LocalEpochs,
		BatchSize:        spec.BatchSize,
		Schedule:         spec.Schedule,
		MaxShardExamples: scale.MaxShardExamples,
		Concurrency:      32,
		BufferSize:       8,
		MaxStaleness:     10,
		StalenessAlpha:   0.5,
		ServerLR:         serverLR,
		MaxRounds:        scale.MaxRounds,
		EvalEvery:        scale.EvalEvery,
		Metric:           spec.Metric,
		Executors:        4,
	}
}

// BenchRounds returns each domain's Table 4 round budget: embedding-heavy
// messaging converges over many more aggregations than the dense domains.
func BenchRounds(d Domain) int {
	if d == Messaging {
		return 1000
	}
	return 150
}

// SyncConfig builds the domain's FedAvg job config.
func SyncConfig(spec Spec, scale Scale, seed int64) fedsim.Config {
	return fedsim.Config{
		Mode:             fedsim.Sync,
		ModelKind:        spec.Kind,
		Seed:             seed,
		LocalEpochs:      spec.LocalEpochs,
		BatchSize:        spec.BatchSize,
		Schedule:         spec.Schedule,
		MaxShardExamples: scale.MaxShardExamples,
		CohortSize:       8,
		OverCommit:       1.3,
		RoundDeadlineSec: 900,
		MaxRounds:        scale.MaxRounds,
		EvalEvery:        scale.EvalEvery,
		Metric:           spec.Metric,
		Executors:        4,
	}
}
