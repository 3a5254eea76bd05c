package aggregator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// medianRef is the sort-based median definition: odd counts take the
// middle element, even counts average the two middles — the same two
// floats the reducers' trimmed sum at k = (n-1)/2 adds.
func medianRef(col []float64) float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// TestCoordinateMedianMatchesSortReference: the quickselect-based
// coordinate median equals the sort-based definition exactly, for odd and
// even update counts, including duplicated values.
func TestCoordinateMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17} {
		const dim = 257
		base := randVec(rng, dim)
		got := base.Clone()
		ups := make([]Update, n)
		for i := range ups {
			d := randVec(rng, dim)
			for j := range d {
				if rng.Intn(4) == 0 {
					d[j] = float64(rng.Intn(3)) // duplicates and ties
				}
			}
			ups[i] = Update{ClientID: int64(i), Delta: d, Weight: float64(1 + rng.Intn(9))}
		}
		if err := (CoordinateMedian{}).Aggregate(got, ups); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		col := make([]float64, n)
		for j := 0; j < dim; j++ {
			for i := range ups {
				col[i] = ups[i].Delta[j]
			}
			if want := base[j] + medianRef(col); got[j] != want {
				t.Fatalf("n=%d coord %d: got %v want %v", n, j, got[j], want)
			}
		}
	}
}

// TestRobustWireMatchesDense: both robust reducers over wire-form
// payloads (per-window CopyRange gather) equal the decode-then-reduce
// dense path exactly, for every scheme and awkward dimensions.
func TestRobustWireMatchesDense(t *testing.T) {
	schemes := map[string]codec.Scheme{
		"raw64": codec.RawF64,
		"f32":   codec.F32,
		"q8":    codec.Q8,
		"topk":  codec.TopK(0),
	}
	strategies := map[string]Strategy{
		"trimmed-mean":      TrimmedMean{TrimFrac: 0.2},
		"coordinate-median": CoordinateMedian{},
	}
	for sname, strat := range strategies {
		for kname, scheme := range schemes {
			for _, dim := range []int{1, 255, 257, 1519} {
				fused, ref := fusedAndReference(t, strat, dim,
					[]codec.Scheme{scheme, scheme, scheme, scheme, scheme},
					int64(dim)*17+int64(len(sname)+len(kname)))
				for i := range fused {
					if fused[i] != ref[i] {
						t.Fatalf("%s/%s dim %d: wire[%d]=%v dense=%v", sname, kname, dim, i, fused[i], ref[i])
					}
				}
			}
		}
	}
}

// TestRobustParallelMatchesSequential: the sharded robust reducers are
// bit-identical to their sequential pass over a mixed dense + wire update
// set, for odd and even populations (even exercises the two-middles
// average) and across schemes.
func TestRobustParallelMatchesSequential(t *testing.T) {
	const dim = 70_000 // dim*n > parallelMinWork
	rng := rand.New(rand.NewSource(33))
	for _, strat := range []Strategy{TrimmedMean{TrimFrac: 0.25}, CoordinateMedian{}} {
		for _, n := range []int{15, 16} {
			base := randVec(rng, dim)
			seq := base.Clone()
			par := base.Clone()
			schemes := []codec.Scheme{codec.RawF64, codec.F32, codec.Q8, codec.TopK(0)}
			ups := make([]Update, n)
			for i := range ups {
				v := randVec(rng, dim)
				if i%3 == 0 {
					ups[i] = Update{ClientID: int64(i), Delta: v}
				} else {
					ups[i] = Update{ClientID: int64(i), Payload: encodePayload(t, v, schemes[i%len(schemes)])}
				}
			}
			if err := strat.Aggregate(seq, ups); err != nil {
				t.Fatalf("%s n=%d sequential: %v", strat.Name(), n, err)
			}
			if err := (Parallel{Inner: strat, Workers: 5, Screen: true}).Aggregate(par, ups); err != nil {
				t.Fatalf("%s n=%d parallel: %v", strat.Name(), n, err)
			}
			for i := range seq {
				if seq[i] != par[i] {
					t.Fatalf("%s n=%d: par[%d]=%v seq=%v", strat.Name(), n, i, par[i], seq[i])
				}
			}
		}
	}
}

// TestCoordinateMedianErrors: the robust reducers report empty batches and
// dimension mismatches before mutating the global vector.
func TestCoordinateMedianErrors(t *testing.T) {
	if err := (CoordinateMedian{}).Aggregate(tensor.NewVector(8), nil); err == nil || !strings.Contains(err.Error(), "no updates") {
		t.Fatalf("empty batch error = %v", err)
	}
	global := tensor.NewVector(8)
	ups := []Update{{ClientID: 1, Delta: tensor.NewVector(7)}}
	if err := (CoordinateMedian{}).Aggregate(global, ups); err == nil {
		t.Fatal("dim mismatch not reported")
	}
	for i, x := range global {
		if x != 0 {
			t.Fatalf("global[%d] = %g mutated by failed aggregation", i, x)
		}
	}
}

// screenUpdate builds a dense update whose L2 norm is exactly 2x (four
// coordinates of magnitude x).
func screenUpdate(id int64, x float64) Update {
	return Update{ClientID: id, Delta: constVec(4, x)}
}

func screenIDs(ups []Update) []int64 {
	ids := make([]int64, len(ups))
	for i, u := range ups {
		ids[i] = u.ClientID
	}
	return ids
}

func TestNormScreenMaxNorm(t *testing.T) {
	ups := []Update{screenUpdate(1, 1), screenUpdate(2, 100), screenUpdate(3, 1.5)}
	kept, rejected := NormScreen{MaxNorm: 10}.Apply(ups)
	if got := screenIDs(kept); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("kept %v", got)
	}
	if got := screenIDs(rejected); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rejected %v", got)
	}
}

func TestNormScreenMedianFactor(t *testing.T) {
	// Norms 2, 4, 6, 200: median (4+6)/2 = 5, limit 4×5 = 20 → only the
	// boosted update is rejected, and input order is preserved.
	ups := []Update{screenUpdate(1, 1), screenUpdate(2, 100), screenUpdate(3, 2), screenUpdate(4, 3)}
	kept, rejected := NormScreen{MedianFactor: 4}.Apply(ups)
	if got := screenIDs(kept); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("kept %v", got)
	}
	if got := screenIDs(rejected); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rejected %v", got)
	}
	// Both knobs: the tighter limit wins (max norm 5 also drops id 4).
	kept, rejected = NormScreen{MaxNorm: 5, MedianFactor: 4}.Apply(ups)
	if len(kept) != 2 || len(rejected) != 2 {
		t.Fatalf("combined limits kept %v rejected %v", screenIDs(kept), screenIDs(rejected))
	}
}

func TestNormScreenNaN(t *testing.T) {
	bad := screenUpdate(2, 1)
	bad.Delta[1] = math.NaN()
	ups := []Update{screenUpdate(1, 1), bad, screenUpdate(3, 1)}
	kept, rejected := NormScreen{MaxNorm: 10}.Apply(ups)
	if len(kept) != 2 || len(rejected) != 1 || rejected[0].ClientID != 2 {
		t.Fatalf("NaN update not screened: kept %v rejected %v", screenIDs(kept), screenIDs(rejected))
	}
}

func TestNormScreenNoDropAliasesInput(t *testing.T) {
	ups := []Update{screenUpdate(1, 1), screenUpdate(2, 1)}
	kept, rejected := NormScreen{MaxNorm: 10}.Apply(ups)
	if rejected != nil {
		t.Fatalf("clean set rejected %v", screenIDs(rejected))
	}
	if len(kept) != len(ups) || &kept[0] != &ups[0] {
		t.Fatal("no-drop screen did not return the input slice")
	}
	// Disabled screen is the identity even on an outlier-laden set.
	ups = append(ups, screenUpdate(3, 1e300))
	if kept, rejected := (NormScreen{}).Apply(ups); len(kept) != 3 || rejected != nil {
		t.Fatal("disabled screen dropped updates")
	}
}

func TestNormScreenAllRejected(t *testing.T) {
	ups := []Update{screenUpdate(1, 50), screenUpdate(2, 60)}
	kept, rejected := NormScreen{MaxNorm: 1}.Apply(ups)
	if len(kept) != 0 || len(rejected) != 2 {
		t.Fatalf("kept %v rejected %v", screenIDs(kept), screenIDs(rejected))
	}
}

// TestNormScreenWireForm: payload-backed updates are screened via
// Payload.Norm2 (wire-byte scan) with the same verdicts as their dense
// decodes — a boosted q8 update is caught without materialization.
func TestNormScreenWireForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const dim = 600
	honest := randVec(rng, dim)
	boosted := honest.Clone()
	boosted.Scale(-50) // sign-flip at scale 50 inflates the norm 50×
	ups := []Update{
		{ClientID: 1, Payload: encodePayload(t, honest, codec.Q8)},
		{ClientID: 2, Payload: encodePayload(t, boosted, codec.Q8)},
		{ClientID: 3, Payload: encodePayload(t, honest, codec.RawF64)},
	}
	kept, rejected := NormScreen{MedianFactor: 4}.Apply(ups)
	if len(kept) != 2 || len(rejected) != 1 || rejected[0].ClientID != 2 {
		t.Fatalf("boosted wire update not screened: kept %v rejected %v", screenIDs(kept), screenIDs(rejected))
	}
}

func TestNormScreenValidate(t *testing.T) {
	if err := (NormScreen{MaxNorm: -1}).Validate(); err == nil {
		t.Fatal("negative max norm accepted")
	}
	if err := (NormScreen{MedianFactor: 0.5}).Validate(); err == nil {
		t.Fatal("median factor below 1 accepted")
	}
	for _, s := range []NormScreen{{}, {MaxNorm: 3}, {MedianFactor: 1}, {MaxNorm: 1, MedianFactor: 8}} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
	}
	if (NormScreen{}).Enabled() {
		t.Fatal("zero screen reports enabled")
	}
}

// TestTrimCount: the per-side trim count is floor(frac·n) in exact
// arithmetic, not the truncation of a float product that lands one ulp
// short (0.29 × 100), and always leaves a middle.
func TestTrimCount(t *testing.T) {
	for _, pct := range []int{10, 20, 25, 29, 30, 49} {
		for n := 1; n <= 128; n++ {
			if got, want := trimCount(float64(pct)/100, n), pct*n/100; got != want {
				t.Fatalf("trimCount(0.%02d, %d) = %d, want %d", pct, n, got, want)
			}
		}
	}
	if got := trimCount(0.29, 100); got != 29 {
		t.Fatalf("trimCount(0.29, 100) = %d, want 29", got)
	}
	for n := 1; n <= 128; n++ {
		if k := trimCount(math.Nextafter(0.5, 0), n); 2*k >= n {
			t.Fatalf("trimCount(0.5-ulp, %d) = %d leaves no middle", n, k)
		}
	}
}

// tileKernels are the two tile reducers behind trimmedRange, callable at
// any trim count (the dispatch on streamMaxTrim is bypassed).
var tileKernels = map[string]func([]float64, []Update, int, int, int) []float64{
	"network":   streamTile,
	"selection": selectTile,
}

// columnUpdates turns columns (cols[c][i] = update i's value at coordinate
// c) into dense updates.
func columnUpdates(cols [][]float64) []Update {
	ups := make([]Update, len(cols[0]))
	for i := range ups {
		d := tensor.NewVector(len(cols))
		for c := range cols {
			d[c] = cols[c][i]
		}
		ups[i] = Update{ClientID: int64(i), Delta: d}
	}
	return ups
}

// TestTileKernelsMatchSortReference: for every population n <= 40 and
// every trim count k < n/2, both tile kernels' middle sums equal the
// sort-based definition — exactly on columns whose sums are exact (ties of
// small integers, ±0), to reassociation error on Gaussian columns — and a
// column of dyadic honest values with up to k outliers of ±1e300 yields a
// mean inside the honest range exactly: only middle values are ever added,
// so nothing cancels. Dense inputs are byte-equal afterwards.
func TestTileKernelsMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 1; n <= 40; n++ {
		for k := 0; 2*k < n; k++ {
			ties := make([]float64, n)
			zeros := make([]float64, n)
			gauss := make([]float64, n)
			honest := make([]float64, n)
			for i := 0; i < n; i++ {
				ties[i] = float64(rng.Intn(5))
				zeros[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
				gauss[i] = rng.NormFloat64()
				honest[i] = 1 + float64(rng.Intn(65))/64
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			poisoned := append([]float64(nil), honest...)
			for _, i := range rng.Perm(n)[:k] {
				poisoned[i] = math.Copysign(1e300, rng.Float64()-0.5)
			}
			for i, v := range poisoned {
				if v == honest[i] {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			cols := [][]float64{ties, zeros, gauss, poisoned}
			ups := columnUpdates(cols)
			before := make([]tensor.Vector, n)
			for i, u := range ups {
				before[i] = u.Delta.Clone()
			}
			for name, kernel := range tileKernels {
				buf := make([]float64, (n+2*k+3)*robustStride+n)
				sums := kernel(buf, ups, 0, len(cols), k)
				for c, tol := range []float64{0, 0, 1e-12} { // ties, zeros, gauss
					want := trimmedRefSum(cols[c], k)
					if math.Abs(sums[c]-want) > tol*(math.Abs(want)+1) {
						t.Fatalf("%s n=%d k=%d column %d: sum %v, sorted sum %v", name, n, k, c, sums[c], want)
					}
				}
				if mean := sums[3] / float64(n-2*k); mean < lo || mean > hi {
					t.Fatalf("%s n=%d k=%d: mean %v escaped the honest range [%v, %v]", name, n, k, mean, lo, hi)
				}
				for i, u := range ups {
					for c := range u.Delta {
						if math.Float64bits(u.Delta[c]) != math.Float64bits(before[i][c]) {
							t.Fatalf("%s n=%d k=%d: dense update %d mutated at %d", name, n, k, i, c)
						}
					}
				}
			}
		}
	}
}

// BenchmarkTileKernels prices the two tile kernels head to head at every
// trim count k = 2…12 a round of 13, 32 or 64 q8 updates allows (13 at
// k = 2 is defended_rounds' screened round), bypassing the
// streamMaxTrim dispatch — the measurement that places the crossover —
// and, up to streamMaxTrim, the register network trimmedRange runs in the
// row walk's place (networkTile, on tiles of networkTileWidth). Reports
// ns per column.
func BenchmarkTileKernels(b *testing.B) {
	const tiles = 16
	rng := rand.New(rand.NewSource(91))
	ups := make([]Update, 64)
	for i := range ups {
		ups[i] = Update{ClientID: int64(i), Payload: encodePayload(b, randVec(rng, tiles*robustTile), codec.Q8)}
	}
	for _, n := range []int{13, 32, 64} {
		buf := make([]float64, (n+1)*robustStride+n) // the selection's; the network's 2k+2 rows fit
		for k := 2; k <= min(12, (n-1)/2); k++ {
			for _, name := range []string{"network", "selection", "register"} {
				kernel, width := tileKernels[name], robustTile
				if name == "register" {
					if k > streamMaxTrim {
						continue
					}
					kernel, width = networkTile, networkTileWidth
				}
				b.Run(fmt.Sprintf("n=%d/k=%d/%s", n, k, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for t := 0; t < tiles*robustTile; t += width {
							kernel(buf, ups[:n], t, t+width, k)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(tiles*robustTile), "ns/column")
				})
			}
		}
	}
}

// robustCases puts each reducer on both sides of the streamMaxTrim
// crossover: 9 updates reduce through the network, 20 through selection.
var robustCases = []struct {
	name  string
	strat Strategy
	n     int
}{
	{"trimmed/network", TrimmedMean{TrimFrac: 0.25}, 9},   // k = 2
	{"trimmed/selection", TrimmedMean{TrimFrac: 0.4}, 20}, // k = 8
	{"median/network", CoordinateMedian{}, 9},             // k = 4
	{"median/selection", CoordinateMedian{}, 20},          // k = 9
}

// TestRobustTileBoundaries: at dimensions on and around the tile and shard
// quanta, both reducers on both kernels give the same bits over a mixed
// dense + wire update set (all four schemes) as over its dense decode, and
// sharded over 1, 2 and 5 workers as sequentially; the dense members of
// the set are untouched.
func TestRobustTileBoundaries(t *testing.T) {
	schemes := []codec.Scheme{codec.RawF64, codec.F32, codec.Q8, codec.TopK(0)}
	for _, tc := range robustCases {
		for _, dim := range []int{1, 255, 257, robustTile - 1, robustTile, robustTile + 1, 3*robustTile + 5} {
			rng := rand.New(rand.NewSource(int64(dim)))
			base := randVec(rng, dim)
			mixed := make([]Update, tc.n)
			dense := make([]Update, tc.n)
			var before []tensor.Vector
			for i := range mixed {
				v := randVec(rng, dim)
				if i%5 == 0 {
					mixed[i] = Update{ClientID: int64(i), Delta: v}
					dense[i] = mixed[i]
					before = append(before, v.Clone())
					continue
				}
				blob := mustEncode(t, v, schemes[i%len(schemes)])
				decoded, _, err := codec.Decode(blob)
				if err != nil {
					t.Fatal(err)
				}
				p, err := codec.ParsePayload(blob)
				if err != nil {
					t.Fatal(err)
				}
				mixed[i] = Update{ClientID: int64(i), Payload: p}
				dense[i] = Update{ClientID: int64(i), Delta: decoded}
			}
			seq := base.Clone()
			if err := tc.strat.Aggregate(seq, mixed); err != nil {
				t.Fatalf("%s dim %d: %v", tc.name, dim, err)
			}
			ref := base.Clone()
			if err := tc.strat.Aggregate(ref, dense); err != nil {
				t.Fatalf("%s dim %d dense: %v", tc.name, dim, err)
			}
			for j := range seq {
				if seq[j] != ref[j] {
					t.Fatalf("%s dim %d: wire[%d]=%v dense=%v", tc.name, dim, j, seq[j], ref[j])
				}
			}
			for _, workers := range []int{1, 2, 5} {
				par := base.Clone()
				p := Parallel{Inner: tc.strat, Screen: true}
				if err := p.fork(tc.strat.(rangeStrategy), par, mixed, workers); err != nil {
					t.Fatalf("%s dim %d workers %d: %v", tc.name, dim, workers, err)
				}
				for j := range seq {
					if math.Float64bits(par[j]) != math.Float64bits(seq[j]) {
						t.Fatalf("%s dim %d workers %d: par[%d]=%v seq=%v", tc.name, dim, workers, j, par[j], seq[j])
					}
				}
			}
			for i, want := range before {
				got := mixed[5*i].Delta
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s dim %d: dense update %d mutated at %d", tc.name, dim, 5*i, j)
					}
				}
			}
		}
	}
}

// TestRobustNonFiniteInputs: a NaN element — in the first row, mid-set or
// the last row — always surfaces as ErrNonFinite through the screened
// reducer, on both kernels; an infinity is an outlier like any other,
// trimmed without trace while at most k of one sign share a column and
// surfacing as ErrNonFinite otherwise. Either way no non-finite value is
// published without the error.
func TestRobustNonFiniteInputs(t *testing.T) {
	const dim = 300
	for _, tc := range robustCases {
		k := (tc.n - 1) / 2
		if tm, ok := tc.strat.(TrimmedMean); ok {
			k = trimCount(tm.TrimFrac, tc.n)
		}
		run := func(bad float64, rows ...int) (tensor.Vector, error) {
			rng := rand.New(rand.NewSource(71))
			ups := make([]Update, tc.n)
			for i := range ups {
				ups[i] = Update{ClientID: int64(i), Delta: randVec(rng, dim)}
			}
			for _, r := range rows {
				ups[r].Delta[dim/2] = bad
			}
			global := tensor.NewVector(dim)
			err := Parallel{Inner: tc.strat, Screen: true}.Aggregate(global, ups)
			return global, err
		}
		for _, row := range []int{0, k, tc.n - 1} {
			if _, err := run(math.NaN(), row); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s: NaN in row %d: err = %v, want ErrNonFinite", tc.name, row, err)
			}
		}
		for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
			trimmed := make([]int, k)
			for i := range trimmed {
				trimmed[i] = 2 * i
			}
			global, err := run(inf, trimmed...)
			if err != nil {
				t.Fatalf("%s: %d × %v in a column: %v", tc.name, k, inf, err)
			}
			for j, x := range global {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: %d × %v published %v at %d", tc.name, k, inf, x, j)
				}
			}
			if _, err := run(inf, append(trimmed, tc.n-1)...); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s: %d × %v in a column: err = %v, want ErrNonFinite", tc.name, k+1, inf, err)
			}
		}
	}
}

// TestNormScreenParallelNorms: a set large enough to fork computes every
// norm — and so screens the same updates — exactly as the serial loop.
func TestNormScreenParallelNorms(t *testing.T) {
	const dim, n = 70_000, 16 // dim*n > parallelMinWork
	rng := rand.New(rand.NewSource(81))
	ups := make([]Update, n)
	for i := range ups {
		v := randVec(rng, dim)
		if i%5 == 1 {
			v.Scale(-50)
		}
		if i%2 == 0 {
			ups[i] = Update{ClientID: int64(i), Delta: v}
		} else {
			ups[i] = Update{ClientID: int64(i), Payload: encodePayload(t, v, codec.Q8)}
		}
	}
	norms := make([]float64, n)
	updateNorms(norms, ups)
	for i, u := range ups {
		if want := updateNorm(u); math.Float64bits(norms[i]) != math.Float64bits(want) {
			t.Fatalf("norm %d = %v, serial %v", i, norms[i], want)
		}
	}
	kept, rejected := NormScreen{MedianFactor: 4}.Apply(ups)
	if got := screenIDs(rejected); len(got) != 3 || got[0] != 1 || got[1] != 6 || got[2] != 11 {
		t.Fatalf("rejected %v, want the three boosted updates", got)
	}
	if len(kept) != n-3 {
		t.Fatalf("kept %d of %d", len(kept), n)
	}
}

// TestRobustSteadyStateAllocs pins the tile scratch: once the pool is warm
// the robust kernels allocate nothing (the network and the selection
// alike), a sharded commit allocates only its fork's bookkeeping, and a
// cold one allocates per worker no more than the (2k+2)-row tile workspace
// — never a window of the whole range. GC is disabled so the pool can't be
// emptied mid-measurement.
func TestRobustSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const dim = 70_000
	const n = 20
	rng := rand.New(rand.NewSource(51))
	ups := make([]Update, n)
	for i := range ups {
		ups[i] = Update{ClientID: int64(i), Payload: encodePayload(t, randVec(rng, dim), codec.Q8)}
	}
	global := tensor.NewVector(dim)
	for _, strat := range []Strategy{TrimmedMean{TrimFrac: 0.2}, CoordinateMedian{}} {
		aggregate := func() {
			if err := strat.Aggregate(global, ups); err != nil {
				t.Fatal(err)
			}
		}
		aggregate() // warm the scratch pool
		if allocs := testing.AllocsPerRun(5, aggregate); allocs != 0 {
			t.Fatalf("%s: steady-state kernel allocates %v times per reduce", strat.Name(), allocs)
		}
	}

	const workers = 4
	tm := TrimmedMean{TrimFrac: 0.2}
	k := trimCount(tm.TrimFrac, n)
	p := Parallel{Inner: tm, Workers: workers, Screen: true}
	allocated := func(runs int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := p.Aggregate(global, ups); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	const forkBytes = 2 << 10 // errs, WaitGroup, one closure per worker
	tileBytes := float64((2*k + 2) * robustStride * 8)
	runtime.GC()
	runtime.GC() // two cycles empty the pool, victim cache included
	if cold, limit := allocated(1), workers*tileBytes+forkBytes; cold > limit {
		t.Fatalf("cold sharded trimmed-mean allocates %.0f B (limit %.0f): scratch is not one tile per worker", cold, limit)
	}
	// sync.Pool keeps one item per P out of other Ps' reach, so a warm fork
	// can still miss now and then; a miss costs one tile workspace, where a
	// window of the whole range would cost dim/workers rows' worth per run.
	allocated(3)
	if warm, limit := allocated(20), tileBytes/4+forkBytes; warm > limit {
		t.Fatalf("steady-state sharded trimmed-mean allocates %.0f B/op (limit %.0f)", warm, limit)
	}
}
