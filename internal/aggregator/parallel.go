package aggregator

import (
	"errors"
	"math"
	"runtime"
	"sync"

	"flint/internal/tensor"
)

// rangeStrategy is implemented by strategies whose aggregation is
// coordinate-separable: aggregateRange folds the updates into
// global[lo:hi] only, visiting the updates in the same order as the
// sequential pass. Disjoint ranges touch disjoint memory, so a sharded
// run needs no synchronization beyond joining the workers — and because
// each coordinate sees the identical sequence of floating-point
// operations, the sharded result is bit-for-bit equal to the sequential
// one (no merge step, no reassociation error). Every range kernel reads
// wire-form (Payload-backed) updates directly, so Parallel never decodes
// the update set ahead of the fork.
type rangeStrategy interface {
	aggregateRange(global tensor.Vector, updates []Update, lo, hi int) error
}

// ErrNonFinite is the sentinel a screened aggregation returns when the
// aggregate contains NaN or ±Inf — finite updates can still sum past
// MaxFloat64. The aggregate HAS been applied when this is returned;
// callers that must not publish non-finite state discard the target (the
// commit pipeline and the tier leader reduce into an unpublished buffer
// and drop it).
var ErrNonFinite = errors.New("aggregator: non-finite aggregate")

// parallelMinWork is the aggregation size (dim × update count) below
// which forking workers costs more than the arithmetic it parallelizes;
// smaller batches run the inner strategy sequentially.
const parallelMinWork = 1 << 20

// shardAlign quantizes worker range boundaries, in coordinates. 256 is
// the encoder's q8 chunk, so for the payloads it produces a boundary
// falls on a chunk edge. A device may send any chunk size the wire
// accepts, and then a chunk can straddle two workers: that is correct,
// since scale words are read-only and shared and each worker's chunk walk
// starts at its own lo, only not aligned. 256 is also 2 KiB of float64
// accumulator — 32 cache lines — so adjacent workers never store to the
// same line (no false sharing at the seams). Alignment only moves
// boundaries; every coordinate still sees the identical operation
// sequence, so bit-identity with sequential is unaffected.
const shardAlign = 256

// Parallel is a sharded tree-reduction wrapper around a coordinate-
// separable strategy: it splits the parameter vector into contiguous
// ranges, one per worker, and runs the inner strategy's range kernel on
// each concurrently. The commit pipeline's O(K·dim) aggregation becomes
// O(K·dim/P) wall-clock at P cores with zero extra allocation.
//
// Strategies that are not coordinate-separable (and batches too small to
// amortize goroutine startup) delegate to the inner strategy unchanged,
// so Parallel is safe to install unconditionally.
type Parallel struct {
	// Inner is the wrapped strategy (FedAvg, FedBuff, TrimmedMean, and
	// CoordinateMedian shard; others run sequentially).
	Inner Strategy
	// Workers caps the shard count (0 = GOMAXPROCS).
	Workers int
	// Screen folds a non-finite sweep of each worker's range into the
	// same pass, while the freshly written accumulator is still
	// cache-hot: any NaN/Inf reachable from the inputs necessarily
	// leaves the affected coordinate non-finite, so screening the
	// output range catches overflow and poisoned inputs alike. A hit
	// surfaces as ErrNonFinite after all workers join.
	Screen bool
}

// Name implements Strategy.
func (p Parallel) Name() string { return "parallel(" + p.Inner.Name() + ")" }

// Aggregate implements Strategy. Errors match the inner strategy's
// exactly: validation runs once up front, and scalar-weight failures
// (e.g. FedBuff's zero total weight) are detected identically by every
// worker before any of them mutates the global vector.
func (p Parallel) Aggregate(global tensor.Vector, updates []Update) error {
	rs, ok := p.Inner.(rangeStrategy)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(global) {
		workers = len(global)
	}
	if !ok || workers <= 1 || len(updates) == 0 || len(global)*len(updates) < parallelMinWork {
		if err := p.Inner.Aggregate(global, updates); err != nil {
			return err
		}
		if p.Screen {
			return screenRange(global, 0, len(global))
		}
		return nil
	}
	if err := validateDims(global, updates); err != nil {
		return err
	}
	return p.fork(rs, global, updates, workers)
}

// fork runs the range kernel over shardAlign-quantized contiguous ranges,
// one goroutine each, and joins them. Callers have validated dimensions.
func (p Parallel) fork(rs rangeStrategy, global tensor.Vector, updates []Update, workers int) error {
	chunk := (len(global) + workers - 1) / workers
	chunk = (chunk + shardAlign - 1) / shardAlign * shardAlign
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(global))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			err := rs.aggregateRange(global, updates, lo, hi)
			if err == nil && p.Screen {
				err = screenRange(global, lo, hi)
			}
			errs[w] = err
		}(w, lo, hi)
	}
	wg.Wait()
	// Kernel errors (which precede any mutation) outrank screen hits, so
	// the wrapped error contract is unchanged by Screen.
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrNonFinite) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// screenRange scans global[lo:hi] for NaN/±Inf.
func screenRange(global tensor.Vector, lo, hi int) error {
	for _, x := range global[lo:hi] {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ErrNonFinite
		}
	}
	return nil
}
