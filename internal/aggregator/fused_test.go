package aggregator

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// q8Blob hand-builds a q8 frame with the given chunk size, random scales
// and random value bytes. The encoder always uses 256-element chunks; the
// wire accepts any chunk up to codec.MaxDim from a device.
func q8Blob(rng *rand.Rand, dim, chunk int) []byte {
	chunks := (dim + chunk - 1) / chunk
	blob := make([]byte, 16+4+4*chunks+dim)
	copy(blob, codec.Magic)
	blob[3] = codec.Version
	blob[4] = byte(codec.KindQ8)
	binary.LittleEndian.PutUint32(blob[8:], uint32(dim))
	p := blob[16:]
	binary.LittleEndian.PutUint32(p, uint32(chunk))
	for c := 0; c < chunks; c++ {
		binary.LittleEndian.PutUint32(p[4+4*c:], math.Float32bits(float32(rng.ExpFloat64()*0.02)))
	}
	rng.Read(p[4+4*chunks:])
	binary.LittleEndian.PutUint32(blob[12:], crc32.ChecksumIEEE(p))
	return blob
}

// wireAndDense parses blob into a payload-backed update and decodes it
// into the equivalent dense one (the decode-then-reduce reference).
func wireAndDense(t testing.TB, blob []byte, id int64, w float64, stale int) (wire, dense Update) {
	t.Helper()
	p, err := codec.ParsePayload(blob)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	v, _, err := codec.Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return Update{ClientID: id, Payload: p, Weight: w, Staleness: stale},
		Update{ClientID: id, Delta: v, Weight: w, Staleness: stale}
}

// sameBits fails unless got and want are bit-identical.
func sameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFusedForeignQ8Chunks: q8 updates whose chunk sizes are not the
// encoder's 256 — {1, 7, 255, 256, 1000, dim} mixed in one update set, so
// the group pass must break and resume — reduce through FedAvg and FedBuff,
// sequential and sharded over five workers (whose 256-aligned boundaries
// straddle the foreign chunks), bit-identical to the dense reference.
func TestFusedForeignQ8Chunks(t *testing.T) {
	const dim = 90_001 // × 16 updates > parallelMinWork, so Parallel forks
	chunks := []int{256, 256, 256, 256, 7, 7, 7, 7, 1, 255, 1000, 256, 1000, 1000, dim, 1000}
	rng := rand.New(rand.NewSource(13))
	var wire, dense []Update
	for i, chunk := range chunks {
		w, d := wireAndDense(t, q8Blob(rng, dim, chunk), int64(i), rng.Float64()*10+0.5, rng.Intn(4))
		wire, dense = append(wire, w), append(dense, d)
	}
	base := randVec(rng, dim)
	for _, strat := range []Strategy{FedAvg{}, FedBuff{ServerLR: 0.9, Alpha: 0.5}} {
		ref := base.Clone()
		if err := strat.Aggregate(ref, dense); err != nil {
			t.Fatalf("%s reference: %v", strat.Name(), err)
		}
		for _, s := range []Strategy{strat, Parallel{Inner: strat, Workers: 5}} {
			got := base.Clone()
			if err := s.Aggregate(got, wire); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			sameBits(t, s.Name(), got, ref)
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

// FuzzFusedAggregateParity drives random dimensions, update counts (up to
// 11, so every remainder after whole groups of four occurs) and update
// forms — q8 with a random chunk size, raw64, f32, top-k, or dense — through
// FedAvg or staleness-weighted FedBuff, and requires exact equality with
// decode-then-reduce, sequential and sharded over three workers.
func FuzzFusedAggregateParity(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), true)
	f.Add(int64(99), uint16(257), uint8(1), false)
	f.Add(int64(7), uint16(1), uint8(5), true)
	f.Add(int64(4), uint16(1499), uint8(10), false)
	f.Fuzz(func(t *testing.T, seed int64, dimRaw uint16, nRaw uint8, fedbuff bool) {
		dim := int(dimRaw)%1500 + 1
		n := int(nRaw)%11 + 1
		var strat rangeStrategy = FedAvg{}
		if fedbuff {
			strat = FedBuff{ServerLR: 0.8, Alpha: 0.5}
		}
		rng := rand.New(rand.NewSource(seed))
		base := randVec(rng, dim)
		fused := base.Clone()
		par := base.Clone()
		ref := base.Clone()
		// Most updates share one form (and q8 chunk size), so runs long
		// enough to group are common; a quarter draw their own and break
		// the runs.
		mainForm, mainChunk := rng.Intn(5), 256
		if rng.Intn(2) == 0 {
			mainChunk = rng.Intn(dim+300) + 1
		}
		var wire, dense []Update
		for i := 0; i < n; i++ {
			form, chunk := mainForm, mainChunk
			if rng.Intn(4) == 0 {
				form, chunk = rng.Intn(5), rng.Intn(dim+300)+1
			}
			var blob []byte
			switch form {
			case 0:
				blob = q8Blob(rng, dim, chunk)
			case 1:
				blob = mustEncode(t, randVec(rng, dim), codec.RawF64)
			case 2:
				blob = mustEncode(t, randVec(rng, dim), codec.F32)
			case 3:
				blob = mustEncode(t, randVec(rng, dim), codec.TopK(0))
			case 4:
				u := Update{ClientID: int64(i), Delta: randVec(rng, dim), Weight: rng.Float64() * 5, Staleness: rng.Intn(5)}
				wire, dense = append(wire, u), append(dense, u)
				continue
			}
			w, d := wireAndDense(t, blob, int64(i), rng.Float64()*5, rng.Intn(5))
			wire, dense = append(wire, w), append(dense, d)
		}
		if err := strat.aggregateRange(fused, wire, 0, dim); err != nil {
			t.Fatalf("fused: %v", err)
		}
		if err := (Parallel{}).fork(strat, par, wire, 3); err != nil {
			t.Fatalf("sharded fused: %v", err)
		}
		if err := strat.aggregateRange(ref, dense, 0, dim); err != nil {
			t.Fatalf("reference: %v", err)
		}
		for i := range fused {
			if fused[i] != ref[i] {
				t.Fatalf("fused[%d]=%v ref=%v (dim %d n %d)", i, fused[i], ref[i], dim, n)
			}
			if math.Float64bits(par[i]) != math.Float64bits(fused[i]) {
				t.Fatalf("par[%d]=%v fused=%v (dim %d n %d)", i, par[i], fused[i], dim, n)
			}
		}
	})
}
