package aggregator

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// encodePayload round-trips v through the codec into a Payload view.
func encodePayload(t testing.TB, v tensor.Vector, s codec.Scheme) *codec.Payload {
	t.Helper()
	blob, err := codec.Encode(v, s)
	if err != nil {
		t.Fatalf("encode %v: %v", s, err)
	}
	p, err := codec.ParsePayload(blob)
	if err != nil {
		t.Fatalf("parse payload %v: %v", s, err)
	}
	return p
}

func randVec(rng *rand.Rand, dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// fusedAndReference builds two identical global vectors and runs strat
// once over payload-backed updates (fused) and once over the same
// updates materialized through the codec (decode-then-reduce), returning
// both results.
func fusedAndReference(t *testing.T, strat Strategy, dim int, schemes []codec.Scheme, seed int64) (fused, ref tensor.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := randVec(rng, dim)
	fused = base.Clone()
	ref = base.Clone()
	var wire, dense []Update
	for i, s := range schemes {
		v := randVec(rng, dim)
		p := encodePayload(t, v, s)
		w := rng.Float64()*10 + 0.5
		stale := rng.Intn(4)
		wire = append(wire, Update{ClientID: int64(i), Payload: p, Weight: w, Staleness: stale})
		decoded, _, err := codec.Decode(mustEncode(t, v, s))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		dense = append(dense, Update{ClientID: int64(i), Delta: decoded, Weight: w, Staleness: stale})
	}
	if err := strat.Aggregate(fused, wire); err != nil {
		t.Fatalf("fused aggregate: %v", err)
	}
	if err := strat.Aggregate(ref, dense); err != nil {
		t.Fatalf("reference aggregate: %v", err)
	}
	return fused, ref
}

func mustEncode(t testing.TB, v tensor.Vector, s codec.Scheme) []byte {
	t.Helper()
	blob, err := codec.Encode(v, s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return blob
}

// TestFusedKernelMatchesDecodeThenReduce: for every scheme and both live
// strategies, aggregating straight out of wire payloads equals
// materializing each update and reducing — exactly (the fused kernels
// compute each decoded value and each accumulation with the identical
// expressions; top-k's skipped zeros can at most flip a -0, which ==
// treats as equal).
func TestFusedKernelMatchesDecodeThenReduce(t *testing.T) {
	dims := []int{1, 255, 256, 257, 1519, 4096}
	schemes := map[string]codec.Scheme{
		"raw64": codec.RawF64,
		"f32":   codec.F32,
		"q8":    codec.Q8,
		"topk":  codec.TopK(0),
	}
	strategies := map[string]Strategy{
		"fedavg":  FedAvg{},
		"fedbuff": FedBuff{ServerLR: 0.9, Alpha: 0.5},
	}
	for sname, strat := range strategies {
		for kname, scheme := range schemes {
			for _, dim := range dims {
				fused, ref := fusedAndReference(t, strat, dim,
					[]codec.Scheme{scheme, scheme, scheme}, int64(dim)*31+int64(len(kname)))
				for i := range fused {
					if fused[i] != ref[i] {
						t.Fatalf("%s/%s dim %d: fused[%d]=%v ref=%v", sname, kname, dim, i, fused[i], ref[i])
					}
				}
			}
		}
	}
}

// TestFusedMixedSchemesAndDense: one update set mixing dense vectors with
// payloads of every scheme still matches the all-dense reference.
func TestFusedMixedSchemesAndDense(t *testing.T) {
	const dim = 2000
	fused, ref := fusedAndReference(t, FedAvg{}, dim,
		[]codec.Scheme{codec.RawF64, codec.Q8, codec.TopK(50), codec.F32}, 7)
	for i := range fused {
		if fused[i] != ref[i] {
			t.Fatalf("mixed: fused[%d]=%v ref=%v", i, fused[i], ref[i])
		}
	}
}

// TestFusedParallelMatchesSequential: the sharded fused path (cache-
// aligned ranges, payload kernels) is bit-identical to the sequential
// fused pass — the discipline the dense kernels already guarantee,
// extended to wire-form updates. Workers is forced past the small-batch
// cutoff by sizing dim×K above parallelMinWork.
func TestFusedParallelMatchesSequential(t *testing.T) {
	const dim = 70_000
	const n = 16 // dim*n > parallelMinWork
	rng := rand.New(rand.NewSource(42))
	for _, scheme := range []codec.Scheme{codec.RawF64, codec.Q8, codec.TopK(0)} {
		base := randVec(rng, dim)
		seq := base.Clone()
		par := base.Clone()
		var updates []Update
		for i := 0; i < n; i++ {
			p := encodePayload(t, randVec(rng, dim), scheme)
			updates = append(updates, Update{ClientID: int64(i), Payload: p, Weight: float64(i%3) + 1})
		}
		if err := (FedAvg{}).Aggregate(seq, updates); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if err := (Parallel{Inner: FedAvg{}, Workers: 5, Screen: true}).Aggregate(par, updates); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("%v: par[%d]=%v seq=%v", scheme, i, par[i], seq[i])
			}
		}
	}
}

// TestParallelTrimmedMeanWireMatchesDense: a payload-backed update set
// through the sharded trimmed-mean (per-worker window gather, no whole-
// set materialization) matches the dense path exactly.
func TestParallelTrimmedMeanWireMatchesDense(t *testing.T) {
	const dim = 70_000
	const n = 15
	rng := rand.New(rand.NewSource(9))
	base := randVec(rng, dim)
	wireG := base.Clone()
	denseG := base.Clone()
	var wire, dense []Update
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		wire = append(wire, Update{ClientID: int64(i), Payload: encodePayload(t, v, codec.RawF64)})
		dense = append(dense, Update{ClientID: int64(i), Delta: v.Clone()})
	}
	tm := Parallel{Inner: TrimmedMean{TrimFrac: 0.2}, Workers: 4}
	if err := tm.Aggregate(wireG, wire); err != nil {
		t.Fatalf("wire: %v", err)
	}
	if err := tm.Aggregate(denseG, dense); err != nil {
		t.Fatalf("dense: %v", err)
	}
	for i := range wireG {
		if wireG[i] != denseG[i] {
			t.Fatalf("trimmed: wire[%d]=%v dense=%v", i, wireG[i], denseG[i])
		}
	}
}

// TestScreenCatchesOverflow: two finite updates can sum to +Inf; the
// fused screen reports ErrNonFinite on both the sharded and the
// sequential fallback path, and without Screen the old silent behavior
// is preserved.
func TestScreenCatchesOverflow(t *testing.T) {
	huge := math.MaxFloat64
	for _, workers := range []int{1, 4} {
		global := tensor.NewVector(70_000)
		updates := []Update{
			{ClientID: 1, Delta: constVec(70_000, huge)},
			{ClientID: 2, Delta: constVec(70_000, huge)},
			{ClientID: 3, Delta: constVec(70_000, huge)},
		}
		p := Parallel{Inner: FedBuff{ServerLR: 4}, Workers: workers, Screen: true}
		err := p.Aggregate(global, updates)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("workers=%d: want ErrNonFinite, got %v", workers, err)
		}
		p.Screen = false
		global2 := tensor.NewVector(70_000)
		if err := p.Aggregate(global2, updates); err != nil {
			t.Fatalf("workers=%d unscreened: %v", workers, err)
		}
	}
}

func constVec(dim int, x float64) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = x
	}
	return v
}

// TestTrimmedMeanSelectionMatchesSort: the partial-selection trimmed sum
// equals the sort-based definition across random columns, including ties
// and duplicated values.
func TestTrimmedMeanSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40) + 1
		col := make([]float64, n)
		for i := range col {
			switch rng.Intn(3) {
			case 0:
				col[i] = float64(rng.Intn(5)) // duplicates
			default:
				col[i] = rng.NormFloat64()
			}
		}
		frac := rng.Float64() * 0.49
		k := trimCount(frac, n)

		want := trimmedRefSum(col, k)
		got := make([]float64, n)
		copy(got, col)
		selectMiddle(got, k)
		var s float64
		for _, v := range got[k : n-k] {
			s += v
		}
		// Compare as sums of the same multiset: selection order may
		// differ from sorted order, so allow reassociation error only.
		if math.Abs(s-want) > 1e-9*(math.Abs(want)+1) {
			t.Fatalf("trial %d n=%d k=%d: selection sum %v, sorted sum %v", trial, n, k, s, want)
		}
	}
}

func trimmedRefSum(col []float64, k int) float64 {
	sorted := make([]float64, len(col))
	copy(sorted, col)
	insertSort(sorted)
	var s float64
	for _, v := range sorted[k : len(sorted)-k] {
		s += v
	}
	return s
}

// FuzzFusedAggregateParity drives random dimensions, update counts, and
// values through the fused q8/topk kernels (the lossy schemes, where a
// kernel bug could hide behind quantization error) and requires exact
// equality with decode-then-reduce, sequential and sharded.
func FuzzFusedAggregateParity(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), true)
	f.Add(int64(99), uint16(257), uint8(1), false)
	f.Add(int64(7), uint16(1), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, nRaw uint8, q8 bool) {
		dim := int(dimRaw)%1500 + 1
		n := int(nRaw)%6 + 1
		scheme := codec.TopK(0)
		if q8 {
			scheme = codec.Q8
		}
		rng := rand.New(rand.NewSource(seed))
		base := randVec(rng, dim)
		fused := base.Clone()
		par := base.Clone()
		ref := base.Clone()
		var wire, dense []Update
		for i := 0; i < n; i++ {
			v := randVec(rng, dim)
			blob, err := codec.Encode(v, scheme)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			p, err := codec.ParsePayload(blob)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			decoded, _, err := codec.Decode(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			w := rng.Float64() * 5
			wire = append(wire, Update{ClientID: int64(i), Payload: p, Weight: w})
			dense = append(dense, Update{ClientID: int64(i), Delta: decoded, Weight: w})
		}
		if err := (FedAvg{}).Aggregate(fused, wire); err != nil {
			t.Fatalf("fused: %v", err)
		}
		if err := (Parallel{Inner: FedAvg{}, Workers: 3}).Aggregate(par, wire); err != nil {
			t.Fatalf("parallel fused: %v", err)
		}
		if err := (FedAvg{}).Aggregate(ref, dense); err != nil {
			t.Fatalf("reference: %v", err)
		}
		for i := range fused {
			if fused[i] != ref[i] {
				t.Fatalf("fused[%d]=%v ref=%v (dim %d n %d %v)", i, fused[i], ref[i], dim, n, scheme)
			}
			if par[i] != fused[i] {
				t.Fatalf("par[%d]=%v fused=%v (dim %d n %d %v)", i, par[i], fused[i], dim, n, scheme)
			}
		}
	})
}
