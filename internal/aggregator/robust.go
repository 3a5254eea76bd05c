package aggregator

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// robustTile is the width, in columns, of the tile the robust reducers
// walk their range in: every update's window of the tile is decoded once,
// the tile is reduced, and only then does the driver move on — so the
// working set is a few 8 KiB rows (L1/L2-resident) however long the range
// or large the update set. A multiple of shardAlign, so a tile never
// splits one of the encoder's 256-element q8 chunks either.
const robustTile = 4 * shardAlign

// robustStride is the distance between tile workspace rows, in float64s:
// one cache line more than the tile, so the rows of one column fall in
// different L1 sets and the selection kernel's column gather does not
// evict itself (at a power-of-two stride all n rows of a column share a
// set).
const robustStride = robustTile + 8

// streamMaxTrim is the largest per-side trim count the streaming selection
// network handles; above it the tile is reduced by quickselect instead.
// The network costs n·2k compare-exchanges a column and the selection n·c,
// c being 10 to 15 scalar exchanges' worth (falling slowly with n) and
// about twice that many packed ones, so the dispatch is on k alone. On
// amd64 the network keeps each column pair's 2k levels in XMM registers
// (networkTile), where an exchange costs three instructions and no memory
// access; 2k = 12 levels, two row values, one temporary and the sum take
// all sixteen registers, so 6 is also as far as it reaches. It takes
// about a quarter of the row walk's time at n = 32, k = 6 and under half
// at n = 13, k = 2, and the row walk is itself under the selection there;
// the row walk and the selection tie between k = 11 and 12 for n = 64, and with the scalar loop other GOARCHes run between
// k = 4–5 and k = 7–8 (BenchmarkTileKernels). Either way the network wins
// every k a round of 13 can have. Raising the constant would change the
// published bits of every round whose k crosses it (the kernels sum the
// middle values in different orders), so it stays at 6, which keeps the
// small-round median and trimmed 32/6 on the network.
const streamMaxTrim = 6

// scratch is a pooled float64 workspace: one worker's tile rows in
// robustPool, one screen's norms in screenPool (separate pools, so neither
// hands the other a buffer of the wrong size class), so a steady-state
// defended commit allocates no scratch.
type scratch struct{ buf []float64 }

func (s *scratch) grow(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

func newScratch() any { return new(scratch) }

var robustPool, screenPool = sync.Pool{New: newScratch}, sync.Pool{New: newScratch}

// robustScratchLen is the tile workspace, in float64s, a reduce of n
// updates at trim count k needs: the network's (networkScratchLen), or the
// selection's tile of n decoded rows, the sum and one gathered column.
func robustScratchLen(n, k int) int {
	if k <= streamMaxTrim {
		return networkScratchLen(n, k)
	}
	return (n+1)*robustStride + n
}

// tileRow is row r of a tile workspace, cut to the tile's width w.
func tileRow(buf []float64, r, w int) []float64 {
	return buf[r*robustStride : r*robustStride+w]
}

// decodeWindow overwrites dst with u's elements [lo, hi). Dense updates are
// copied, never aliased: the reducers reorder their rows in place and the
// caller's vector is not theirs to mutate. CopyRange decodes with the exact
// expressions Materialize uses, so reducing wire-form updates is
// bit-identical to a materialize-first pass.
func decodeWindow(dst []float64, u Update, lo, hi int) {
	if u.Delta != nil {
		copy(dst, u.Delta[lo:hi])
		return
	}
	u.Payload.CopyRange(dst, lo, hi)
}

// trimmedRange is the robust range kernel behind both TrimmedMean and
// CoordinateMedian: global[j] += mean of column j's values after dropping
// its k smallest and k largest, for j in [lo, hi), callers having ensured
// 2k < len(updates). It walks the range tile by tile; each tile is reduced
// to the sum of its middle values by the streaming network (small k, in
// tiles of networkTileWidth) or by quickselect (large k). Only middle
// values are ever added, so an arbitrarily large trimmed outlier cannot
// cancel the honest sum away.
// Either way a column sees the same operations in the same update order
// wherever tile and range boundaries fall, so a sharded run is
// bit-identical to the sequential one. A NaN anywhere in a column makes
// that column's result NaN (the commit's non-finite screen then drops the
// round); ±Inf are ordinary extreme values, trimmed like any outlier.
func trimmedRange(global tensor.Vector, updates []Update, lo, hi, k int) {
	n := len(updates)
	s := robustPool.Get().(*scratch)
	defer robustPool.Put(s)
	buf := s.grow(robustScratchLen(n, k))
	middle := float64(n - 2*k)
	kernel, tile := selectTile, robustTile
	if k <= streamMaxTrim {
		kernel, tile = networkTile, networkTileWidth
	}
	for t := lo; t < hi; t += tile {
		te := min(t+tile, hi)
		sum := kernel(buf, updates, t, te, k)
		g := global[t:te]
		for c, x := range sum {
			g[c] += x / middle
		}
	}
}

// streamTile reduces one tile with a selection network run down the update
// set, one decoded row at a time — no column gather and no per-column
// select. Rows 0..k-1 of the workspace hold each column's k smallest values
// so far in ascending order, rows k..2k-1 the k largest of what the minima
// passed on, in descending order. A decoded row is compare-exchanged down
// the minima (each level keeps the smaller value and passes the larger
// on), what comes out the bottom is compare-exchanged down the maxima, and
// what comes out of those has k values at or below it and k at or above it
// for good: it is a middle value, and is added to the tile's sum. While a
// chain is still filling, the row stops at the chain's first empty level
// instead — row i < k after i minima, row i < 2k after i-k maxima — which
// is a property of the row, not of the column, so no loop here branches
// per element. A NaN poisons every level it passes and every later row
// through them, down to the sum. On amd64 it is the oracle of networkTile,
// which runs the same network with its levels in registers; elsewhere it
// is the network.
func streamTile(buf []float64, updates []Update, lo, hi, k int) []float64 {
	w := hi - lo
	row, sum := tileRow(buf, 2*k, w), tileRow(buf, 2*k+1, w)
	clear(sum)
	for i, u := range updates {
		decodeWindow(row, u, lo, hi)
		for l := 0; l < min(i, k); l++ {
			compareExchange(tileRow(buf, l, w), row)
		}
		if i < k {
			copy(tileRow(buf, i, w), row)
			continue
		}
		for l := k; l < min(i, 2*k); l++ {
			compareExchange(row, tileRow(buf, l, w))
		}
		if i < 2*k {
			copy(tileRow(buf, i, w), row)
			continue
		}
		for c, x := range row {
			sum[c] += x
		}
	}
	return sum
}

// compareExchangeGeneric sorts each column's pair: the smaller of (lo[c],
// hi[c]) ends in lo, the larger in hi. min and max propagate NaN into both.
// It is compareExchange on every GOARCH but amd64, and the oracle the
// packed amd64 kernel is tested against.
func compareExchangeGeneric(lo, hi []float64) {
	hi = hi[:len(lo)]
	for c, a := range lo {
		b := hi[c]
		lo[c] = min(a, b)
		hi[c] = max(a, b)
	}
}

// selectTile reduces one tile by decoding every update's window into the
// workspace and, per column, gathering the tile-local column and
// partitioning out its k smallest and k largest with the deterministic
// quickselect — the kernel for trim counts where the network's n·2k
// compare-exchanges cost more than a selection, CoordinateMedian over a
// large round above all.
func selectTile(buf []float64, updates []Update, lo, hi, k int) []float64 {
	n, w := len(updates), hi-lo
	for i, u := range updates {
		decodeWindow(tileRow(buf, i, w), u, lo, hi)
	}
	sum := tileRow(buf, n, w)
	vals := buf[(n+1)*robustStride:][:n]
	for c := range sum {
		nan := false
		for i := range vals {
			x := buf[i*robustStride+c]
			vals[i] = x
			nan = nan || x != x
		}
		selectMiddle(vals, k)
		var s float64
		for _, v := range vals[k : n-k] {
			s += v
		}
		if nan {
			// The selection may have parked the NaN among the trimmed.
			s = math.NaN()
		}
		sum[c] = s
	}
	return sum
}

// selectMiddle partitions vals so its k smallest elements occupy
// vals[:k] and its k largest vals[len-k:], leaving the middle in
// between — everything a trimmed sum needs, without fully sorting.
func selectMiddle(vals []float64, k int) {
	if k <= 0 || 2*k >= len(vals) {
		return
	}
	nthElement(vals, k-1)
	nthElement(vals[k:], len(vals)-2*k-1)
}

// nthElement partially sorts a so that a[n] holds its n-th smallest
// element with everything before it no larger and everything after no
// smaller — an iterative quickselect with a deterministic median-of-three
// pivot (reproducible sums) and an insertion-sort base case. The interval
// shrinks strictly every iteration, so it terminates even on pathological
// (e.g. NaN-laced) comparisons.
func nthElement(a []float64, n int) {
	lo, hi := 0, len(a)-1
	for hi > lo {
		if hi-lo < 12 {
			insertSort(a[lo : hi+1])
			return
		}
		// Median-of-three of (lo, mid, hi), parked at hi-1 as the pivot.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		a[mid], a[hi-1] = a[hi-1], a[mid]
		pivot := a[hi-1]
		i := lo
		// Branch-free Lomuto partition: whether a[j] < pivot is a coin flip
		// no predictor can call, so swap unconditionally and advance the
		// boundary by the sign bit of a[j]-pivot (set exactly when a[j] is
		// the smaller; -0 counts as below +0, and equal infinities, whose
		// difference is NaN, may land on either side of their own value).
		for j := lo; j < hi-1; j++ {
			x := a[j]
			a[j] = a[i]
			a[i] = x
			i += int(math.Float64bits(x-pivot) >> 63)
		}
		a[i], a[hi-1] = a[hi-1], a[i]
		switch {
		case n == i:
			return
		case n < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}

// insertSort sorts small slices in place without package sort's interface
// overhead — the quickselect base case in the per-coordinate loop.
func insertSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// CoordinateMedian is the Byzantine-robust coordinate-wise median
// (Yin et al., 2018): per coordinate, the median of the update column —
// immune to any minority of arbitrarily poisoned updates, at the cost of
// ignoring aggregation weights. Like TrimmedMean it is a range strategy
// over wire-form updates, so it runs as a first-class live-path reducer
// behind Parallel.
type CoordinateMedian struct{}

// Name implements Strategy.
func (CoordinateMedian) Name() string { return "coordinate-median" }

// Aggregate implements Strategy.
func (m CoordinateMedian) Aggregate(global tensor.Vector, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("aggregator: coordinate median with no updates")
	}
	if err := validateDims(global, updates); err != nil {
		return err
	}
	return m.aggregateRange(global, updates, 0, len(global))
}

// aggregateRange implements rangeStrategy. The median is the trimmed mean
// at the largest trim count that leaves a middle: one value for an odd
// population, the two middles (averaged) for an even one — the same floats
// as the sort-based definition, and parallel stays bit-identical to
// sequential for the reasons trimmedRange gives.
func (CoordinateMedian) aggregateRange(global tensor.Vector, updates []Update, lo, hi int) error {
	trimmedRange(global, updates, lo, hi, (len(updates)-1)/2)
	return nil
}

// medianInPlace returns the median of vals, reordering it. Odd lengths
// take the middle element; even lengths average the two middles. Both
// selections are deterministic (quickselect with a fixed pivot rule plus
// a max-scan of the lower partition), so every worker and every re-run
// produces the identical float.
func medianInPlace(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	mid := n / 2
	nthElement(vals, mid)
	if n%2 == 1 {
		return vals[mid]
	}
	// After nthElement everything before mid is <= vals[mid]; the lower
	// middle is the max of that partition.
	lower := vals[0]
	for _, v := range vals[1:mid] {
		if v > lower {
			lower = v
		}
	}
	return (lower + vals[mid]) / 2
}

// NormScreen is the commit pipeline's pre-reduce rejection layer: updates
// whose L2 norm is an outlier — above an absolute cap, above a multiple
// of the round's median norm, or non-finite — never enter the reduce.
// Boosted poisoning attacks (§4.2: sign-flip at scale s inflates the
// update norm by s) are rejected here before they can claim trimmed-mean
// slots or drag a weighted average. Norms of wire-form updates come from
// codec.Norm2Group, one pass over the wire bytes of four updates at a
// time with no materialization.
type NormScreen struct {
	// MaxNorm rejects updates with L2 norm above this absolute cap
	// (0 disables).
	MaxNorm float64
	// MedianFactor rejects updates with norm greater than MedianFactor ×
	// the update set's median norm (0 disables; must be >= 1 otherwise —
	// the median itself must always pass its own screen).
	MedianFactor float64
}

// Enabled reports whether the screen does anything.
func (s NormScreen) Enabled() bool { return s.MaxNorm > 0 || s.MedianFactor > 0 }

// Validate rejects nonsensical thresholds.
func (s NormScreen) Validate() error {
	if s.MaxNorm < 0 {
		return fmt.Errorf("aggregator: negative screen max norm %v", s.MaxNorm)
	}
	if s.MedianFactor != 0 && s.MedianFactor < 1 {
		return fmt.Errorf("aggregator: screen median factor %v below 1", s.MedianFactor)
	}
	return nil
}

// Apply partitions updates into the kept subset and the rejected
// outliers, both preserving input order. The input slice is never
// mutated (the round owns it: its payloads are released at round
// termination, rejected or not); when nothing is rejected the kept
// result is the input slice itself. The median threshold uses the
// deterministic selection, so the same round always screens the same set.
func (s NormScreen) Apply(updates []Update) (kept, rejected []Update) {
	if !s.Enabled() || len(updates) == 0 {
		return updates, nil
	}
	n := len(updates)
	sc := screenPool.Get().(*scratch)
	defer screenPool.Put(sc)
	buf := sc.grow(2 * n) // the norms, and the copy the median selection reorders
	norms, sorted := buf[:n], buf[n:]
	updateNorms(norms, updates)
	limit := math.Inf(1)
	if s.MaxNorm > 0 {
		limit = s.MaxNorm
	}
	if s.MedianFactor > 0 {
		copy(sorted, norms)
		if t := s.MedianFactor * medianInPlace(sorted); t < limit {
			limit = t
		}
	}
	drop := 0
	for _, norm := range norms {
		if !(norm <= limit) { // NaN norms fail the comparison and are screened
			drop++
		}
	}
	if drop == 0 {
		return updates, nil
	}
	kept = make([]Update, 0, len(updates)-drop)
	rejected = make([]Update, 0, drop)
	for i, u := range updates {
		if norms[i] <= limit {
			kept = append(kept, u)
		} else {
			rejected = append(rejected, u)
		}
	}
	return kept, rejected
}

// normGroup is how many consecutive updates one norm task covers: the
// group codec.Norm2Group walks at once.
const normGroup = 4

// updateNorms fills norms[i] with updates[i]'s L2 norm. The norms sit on
// the commit's critical path ahead of the reduce, so they are taken a
// group of normGroup updates at a time (codec.Norm2Group, one walk for
// four q8 payloads), and a set large enough to pay for the fork strides
// its groups over GOMAXPROCS goroutines. Each norm is still one ascending
// sum, so every value — and the screened set — is bit-identical to the
// serial loop's.
func updateNorms(norms []float64, updates []Update) {
	groups := (len(updates) + normGroup - 1) / normGroup
	workers := min(runtime.GOMAXPROCS(0), groups)
	work := 0
	for _, u := range updates {
		work += u.dim()
	}
	if workers <= 1 || work < parallelMinWork {
		for g := 0; g < groups; g++ {
			groupNorms(norms, updates, g)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := w; g < groups; g += workers {
				groupNorms(norms, updates, g)
			}
		}(w)
	}
	wg.Wait()
}

// groupNorms fills the norms of group g: through codec.Norm2Group when
// every member is in wire form, one by one otherwise.
func groupNorms(norms []float64, updates []Update, g int) {
	lo, hi := g*normGroup, min((g+1)*normGroup, len(updates))
	var ps [normGroup]*codec.Payload
	for i, u := range updates[lo:hi] {
		if u.Delta != nil || u.Payload == nil {
			for i := lo; i < hi; i++ {
				norms[i] = updateNorm(updates[i])
			}
			return
		}
		ps[i] = u.Payload
	}
	codec.Norm2Group(norms[lo:hi], ps[:hi-lo])
}

// updateNorm is the update's L2 norm, whichever form it carries.
func updateNorm(u Update) float64 {
	if u.Delta != nil {
		return u.Delta.Norm2()
	}
	if u.Payload != nil {
		return u.Payload.Norm2()
	}
	return 0
}
