// Package model implements the pure-Go training stack that substitutes for
// the paper's TFLite on-device runtime: the five mobile-scale architectures
// of Table 5 (models A–E), their forward/backward passes, SGD with the
// learning-rate schedules of Fig 10, and flat-parameter views used by the
// federated aggregators.
//
// Every model stores its parameters (and gradients) in a single flat vector;
// layers are views sliced into that vector. This makes FedAvg/FedBuff
// aggregation, serialization, and update-size accounting trivial and
// allocation-free.
package model

import (
	"fmt"

	"flint/internal/data"
	"flint/internal/tensor"
)

// Kind identifies one of the paper's five benchmark architectures.
type Kind string

// The model zoo of Table 5.
const (
	KindA Kind = "A" // Tiny Neural Net            (~1.51k params)
	KindB Kind = "B" // MLP w/ sparse features     (~189k params)
	KindC Kind = "C" // MLP w/ medium embedding    (~208k params)
	KindD Kind = "D" // CNN w/ large embedding     (~390k params)
	KindE Kind = "E" // Multi-task MLP             (~922k params)
)

// Kinds lists the zoo in Table 5 order.
var Kinds = []Kind{KindA, KindB, KindC, KindD, KindE}

// Model is a trainable on-device architecture. Implementations are not safe
// for concurrent use; clone per goroutine.
type Model interface {
	// Kind returns the zoo identifier.
	Kind() Kind
	// Name returns the Table 5 description.
	Name() string
	// NumParams returns the trainable parameter count.
	NumParams() int
	// Params returns the flat parameter vector, aliasing internal storage.
	Params() tensor.Vector
	// Grads returns the flat gradient accumulator, aliasing internal storage.
	Grads() tensor.Vector
	// SetParams copies p into the model. Lengths must match.
	SetParams(p tensor.Vector) error
	// Predict returns the primary-task probability (or ranking score in
	// (0,1)) for ex.
	Predict(ex *data.Example) float64
	// TrainStep runs forward+backward on ex, accumulating gradients, and
	// returns the example loss.
	TrainStep(ex *data.Example) float64
	// ZeroGrads clears the gradient accumulator.
	ZeroGrads()
	// Clone returns a deep copy with independent parameters and gradients.
	Clone() Model
	// Cost returns the static cost profile used by the on-device
	// benchmark harness and the task-duration model.
	Cost() CostProfile
}

// CostProfile captures the per-model static costs consumed by the device
// simulator and the resource forecaster (paper §3.2, §3.5).
type CostProfile struct {
	// TrainFLOPs is the per-example training cost in FLOPs under a mobile
	// runtime that executes sparse inputs as dense ops (the reason model
	// B's device time dwarfs model C's despite similar parameter counts).
	TrainFLOPs float64
	// InferFLOPs is the per-example forward cost in FLOPs.
	InferFLOPs float64
	// MatmulFrac is the fraction of FLOPs spent in dense matmuls; the
	// remainder is gather/elementwise work. Devices have different
	// efficiencies for each (Fig 4's "optimized for one task, worse for
	// another").
	MatmulFrac float64
	// PrepCostPerExample counts feature-processing work per example in
	// abstract prep-units (string hashing, vocab lookups, tokenization);
	// the device profile converts it to time.
	PrepCostPerExample float64
	// WeightBytes is the serialized float32 weight size — the gradient
	// update size M in taskDuration(k) = t·E·|Dk| + 2M/N.
	WeightBytes int
	// WireOverheadBytes is per-transfer payload beyond the weights (the
	// ops bundle for tiny models, vocab deltas), visible in Table 5's
	// "Network" column for models A and C.
	WireOverheadBytes int
	// AssetBytes counts bundled assets (vocabulary files, mappings) that
	// ship with the model but are not trained (§4.1's vocab files).
	AssetBytes int
	// ActivationFloats is the peak activation buffer size (floats) for a
	// single-example training step; drives the memory estimate.
	ActivationFloats int
}

// StorageBytes is the on-disk footprint: weights plus bundled assets
// (Table 5 "Storage").
func (c CostProfile) StorageBytes() int { return c.WeightBytes + c.AssetBytes }

// TransferBytes is the one-way payload M of a model download or gradient
// upload: weights plus wire overhead.
func (c CostProfile) TransferBytes() int { return c.WeightBytes + c.WireOverheadBytes }

// NetworkBytesPerRound is the download+upload payload of one participation
// (Table 5 "Network"): 2M in the paper's task-duration model.
func (c CostProfile) NetworkBytesPerRound() int { return 2 * c.TransferBytes() }

// MemoryBytes estimates peak training memory: float32 weights, gradients and
// a momentum-free optimizer state, activation buffers, plus the runtime
// arena overhead the interpreter allocates per graph.
func (c CostProfile) MemoryBytes(runtimeArena int) int {
	return 2*c.WeightBytes + 4*c.ActivationFloats + runtimeArena
}

// New constructs a model of the given kind with Xavier-initialized weights
// drawn from seed.
func New(kind Kind, seed int64) (Model, error) {
	switch kind {
	case KindA:
		return newTinyNN(seed), nil
	case KindB:
		return newSparseMLP(seed), nil
	case KindC:
		return newEmbedMLP(seed), nil
	case KindD:
		return newEmbedCNN(seed), nil
	case KindE:
		return newMultiTaskMLP(seed), nil
	default:
		return nil, fmt.Errorf("model: unknown kind %q", kind)
	}
}

// InputSpecFor returns the dummy-data spec matching each architecture's
// input schema, used by the on-device benchmark harness (§4.1 "deploy them
// for training on dummy data").
func InputSpecFor(kind Kind) (data.InputSpec, error) {
	switch kind {
	case KindA:
		return data.InputSpec{DenseDim: tinyDenseDim}, nil
	case KindB:
		return data.InputSpec{SparseDim: sparseDim, ActiveLo: 20, ActiveHi: 60}, nil
	case KindC:
		return data.InputSpec{DenseDim: embedMLPDenseDim, Vocab: embedMLPVocab, SeqLo: 8, SeqHi: 48}, nil
	case KindD:
		return data.InputSpec{Vocab: embedCNNVocab, SeqLo: 8, SeqHi: 48}, nil
	case KindE:
		return data.InputSpec{DenseDim: multiTaskDenseDim, Tasks: multiTaskHeads}, nil
	default:
		return data.InputSpec{}, fmt.Errorf("model: unknown kind %q", kind)
	}
}

// arena carves layer views out of one flat vector.
type arena struct {
	buf tensor.Vector
	off int
}

func (a *arena) mat(rows, cols int) *tensor.Matrix {
	m := &tensor.Matrix{Rows: rows, Cols: cols, Data: a.buf[a.off : a.off+rows*cols]}
	a.off += rows * cols
	return m
}

func (a *arena) vec(n int) tensor.Vector {
	v := a.buf[a.off : a.off+n]
	a.off += n
	return v
}

// copyParams validates length and copies p into dst.
func copyParams(dst, p tensor.Vector, kind Kind) error {
	if len(p) != len(dst) {
		return fmt.Errorf("model %s: SetParams length %d, want %d", kind, len(p), len(dst))
	}
	copy(dst, p)
	return nil
}
