package device

import (
	"fmt"
	"math/rand"

	"flint/internal/data"
	"flint/internal/metrics"
	"flint/internal/model"
)

// runtimeArenaBytes models the interpreter's planning/arena overhead per
// graph, the dominant term of Table 5's "Memory" column for graph-heavy
// models. Calibrated per architecture class (see DESIGN.md §2).
var runtimeArenaBytes = map[model.Kind]int{
	model.KindA: 3 << 20,  // tiny dense graph, interpreter floor
	model.KindB: 9 << 20,  // wide input tensor planning
	model.KindC: 0,        // delegate reuses the app arena
	model.KindD: 5 << 20,  // sequence buffers
	model.KindE: 35 << 20, // multi-head graph
}

// Result is one (model, device) benchmark measurement — one point of Fig 4
// and one contribution to a Table 5 row.
type Result struct {
	Device       string
	Platform     Platform
	Model        model.Kind
	Records      int
	TrainSeconds float64
	SecPerRecord float64
	CPUPercent   float64
	MemoryMB     float64
	StorageMB    float64
	NetworkMB    float64
	// ValidatedRecords counts real TrainSteps executed in-process to
	// confirm "the ops bundled with the ML runtime are sufficient to
	// execute the model training" (§4.1); timing is then projected from
	// the device profile.
	ValidatedRecords int
}

// maxValidationSteps bounds the real training steps run per benchmark; the
// remainder of the record budget is projected analytically.
const maxValidationSteps = 128

// Run benchmarks one model on one device profile over `records` examples:
// it executes real training steps on dummy data to validate the graph, then
// converts the model's cost profile through the device's capability numbers.
func Run(kind model.Kind, p Profile, records int, seed int64) (Result, error) {
	if records <= 0 {
		return Result{}, fmt.Errorf("device: records must be positive, got %d", records)
	}
	m, err := model.New(kind, seed)
	if err != nil {
		return Result{}, err
	}
	spec, err := model.InputSpecFor(kind)
	if err != nil {
		return Result{}, err
	}
	steps := records
	if steps > maxValidationSteps {
		steps = maxValidationSteps
	}
	ds, err := data.Dummy(spec, steps, seed)
	if err != nil {
		return Result{}, err
	}
	for _, ex := range ds.Examples {
		if loss := m.TrainStep(ex); loss < 0 {
			return Result{}, fmt.Errorf("device: model %s produced negative loss", kind)
		}
	}
	m.ZeroGrads()

	cost := m.Cost()
	sec := secPerRecord(cost, p)
	computeSec := computeSecPerRecord(cost, p)
	res := Result{
		Device:           p.Name,
		Platform:         p.Platform,
		Model:            kind,
		Records:          records,
		SecPerRecord:     sec,
		TrainSeconds:     sec * float64(records),
		CPUPercent:       cpuPercent(computeSec, sec, p),
		MemoryMB:         float64(cost.MemoryBytes(runtimeArenaBytes[kind])) / 1e6,
		StorageMB:        float64(cost.StorageBytes()) / 1e6,
		NetworkMB:        float64(cost.NetworkBytesPerRound()) / 1e6,
		ValidatedRecords: steps,
	}
	return res, nil
}

// computeSecPerRecord is the pure compute component of a training step.
func computeSecPerRecord(cost model.CostProfile, p Profile) float64 {
	eff := cost.MatmulFrac*p.MatmulGFLOPS + (1-cost.MatmulFrac)*p.GatherGFLOPS
	return cost.TrainFLOPs / (eff * 1e9)
}

// secPerRecord adds feature-processing overhead to the compute time.
func secPerRecord(cost model.CostProfile, p Profile) float64 {
	return computeSecPerRecord(cost, p) + cost.PrepCostPerExample*p.PrepMicros*1e-6
}

// cpuPercent estimates mean device CPU usage while training: the training
// thread saturates one core during compute and idles through I/O-bound
// preprocessing (which we charge at a low duty cycle).
func cpuPercent(computeSec, totalSec float64, p Profile) float64 {
	if totalSec <= 0 || p.Cores <= 0 {
		return 0
	}
	prepDuty := 0.25
	busy := computeSec + (totalSec-computeSec)*prepDuty
	return 100 * busy / totalSec / float64(p.Cores)
}

// Table5Row aggregates a model's benchmark across the device pool, matching
// the paper's reporting: mean/stdev training time over `records` records and
// mean CPU utilization across 27 devices.
type Table5Row struct {
	Model       model.Kind
	Description string
	Params      int
	StorageMB   float64
	NetworkMB   float64
	MemoryMB    float64
	MeanTimeS   float64
	StdevTimeS  float64
	MeanCPU     float64
}

// Table5 benchmarks every zoo model across the pool over `records` records.
func Table5(pool []Profile, records int, seed int64) ([]Table5Row, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("device: empty pool")
	}
	rows := make([]Table5Row, 0, len(model.Kinds))
	for _, kind := range model.Kinds {
		m, err := model.New(kind, seed)
		if err != nil {
			return nil, err
		}
		times := make([]float64, 0, len(pool))
		cpus := make([]float64, 0, len(pool))
		var row Table5Row
		for _, p := range pool {
			r, err := Run(kind, p, records, seed)
			if err != nil {
				return nil, err
			}
			times = append(times, r.TrainSeconds)
			cpus = append(cpus, r.CPUPercent)
			row.StorageMB = r.StorageMB
			row.NetworkMB = r.NetworkMB
			row.MemoryMB = r.MemoryMB
		}
		ts := metrics.Summarize(times)
		cs := metrics.Summarize(cpus)
		row.Model = kind
		row.Description = m.Name()
		row.Params = m.NumParams()
		row.MeanTimeS = ts.Mean
		row.StdevTimeS = ts.Std
		row.MeanCPU = cs.Mean
		rows = append(rows, row)
	}
	return rows, nil
}

// TimeDistribution builds the empirical per-example training-time
// distribution T the simulator samples from ("we sample t ← T, the
// distribution of time to train a single example from on-device
// benchmarks", §3.4), weighted by device share.
type TimeDistribution struct {
	secs    []float64
	weights []float64
	total   float64
}

// NewTimeDistribution profiles the model across the pool.
func NewTimeDistribution(kind model.Kind, pool []Profile) (*TimeDistribution, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("device: empty pool")
	}
	m, err := model.New(kind, 0)
	if err != nil {
		return nil, err
	}
	cost := m.Cost()
	td := &TimeDistribution{}
	for _, p := range pool {
		w := p.Share
		if w <= 0 {
			w = 1e-3
		}
		td.secs = append(td.secs, secPerRecord(cost, p))
		td.weights = append(td.weights, w)
		td.total += w
	}
	return td, nil
}

// Sample draws a per-example training time t, with ±10% run-to-run jitter.
func (td *TimeDistribution) Sample(rng *rand.Rand) float64 {
	u := rng.Float64() * td.total
	var cum float64
	idx := len(td.secs) - 1
	for i, w := range td.weights {
		cum += w
		if u < cum {
			idx = i
			break
		}
	}
	jitter := 1 + (rng.Float64()*2-1)*0.1
	return td.secs[idx] * jitter
}

// Mean returns the share-weighted mean per-example time.
func (td *TimeDistribution) Mean() float64 {
	var s float64
	for i, t := range td.secs {
		s += t * td.weights[i]
	}
	return s / td.total
}
