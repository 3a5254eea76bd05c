package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"flint/internal/tensor"
)

// The encoders this package shipped before the streaming kernels — a
// payload temp framed by copy, the math.Round quantizer and the closure
// min-heap top-k — kept verbatim as the byte-parity oracles.

func oracleEncode(v tensor.Vector, s Scheme, flags byte) []byte {
	dim := len(v)
	var payload []byte
	switch s.Kind {
	case KindRawF64:
		payload = make([]byte, 8*dim)
		for i, x := range v {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(x))
		}
	case KindF32:
		payload = make([]byte, 4*dim)
		for i, x := range v {
			binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(float32(x)))
		}
	case KindQ8:
		payload = oracleQ8(v)
	case KindTopK:
		payload = oracleTopK(v, s.TopK)
	}
	return frame(s.Kind, flags, dim, payload)
}

func frame(kind Kind, flags byte, dim int, payload []byte) []byte {
	blob := make([]byte, headerSize+len(payload))
	copy(blob, Magic)
	blob[3] = Version
	blob[4] = byte(kind)
	blob[5] = flags
	binary.LittleEndian.PutUint32(blob[8:], uint32(dim))
	binary.LittleEndian.PutUint32(blob[12:], crc32.ChecksumIEEE(payload))
	copy(blob[headerSize:], payload)
	return blob
}

// oracleQ8 emits [chunkSize u32][numChunks f32 scales][dim int8 values].
// Each chunk's scale is maxAbs/127; values are round(x/scale) clamped to
// ±127 (the -128 code is reserved), so |x - x̂| ≤ scale/2 plus float32
// rounding of the scale itself.
func oracleQ8(v tensor.Vector) []byte {
	dim := len(v)
	chunks := (dim + q8Chunk - 1) / q8Chunk
	payload := make([]byte, 4+4*chunks+dim)
	binary.LittleEndian.PutUint32(payload, q8Chunk)
	scales := payload[4 : 4+4*chunks]
	vals := payload[4+4*chunks:]
	for c := 0; c < chunks; c++ {
		lo, hi := c*q8Chunk, (c+1)*q8Chunk
		if hi > dim {
			hi = dim
		}
		maxAbs := 0.0
		for _, x := range v[lo:hi] {
			// NaN compares false everywhere, so it never drives the
			// scale; it quantizes to 0 below.
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		// Clamp instead of letting float32() overflow to +Inf: an Inf
		// scale would decode every chunk element as 0*Inf = NaN.
		scale := float32(maxAbs / 127)
		if maxAbs/127 > math.MaxFloat32 {
			scale = math.MaxFloat32
		}
		binary.LittleEndian.PutUint32(scales[4*c:], math.Float32bits(scale))
		if scale == 0 {
			continue // chunk is all zeros (vals already zeroed)
		}
		inv := 1 / float64(scale)
		for i, x := range v[lo:hi] {
			q := math.Round(x * inv)
			// The comparisons also catch NaN (both false → q stays NaN
			// only if unclamped), so saturate explicitly before the
			// int8 conversion, whose behavior on non-integers in range
			// is defined but on NaN is not.
			switch {
			case q > 127:
				q = 127
			case q < -127:
				q = -127
			case math.IsNaN(q):
				q = 0
			}
			vals[lo+i] = byte(int8(q))
		}
	}
	return payload
}

// oracleTopK emits [k u32][k u32 ascending indices][k f32 values],
// keeping the k largest-magnitude entries.
func oracleTopK(v tensor.Vector, k int) []byte {
	dim := len(v)
	if k <= 0 {
		k = dim / 32
		if k < 1 {
			k = 1
		}
	}
	if k > dim {
		k = dim
	}
	// Selection runs O(dim log k) with O(k) extra space — a min-heap of
	// the k strongest entries whose root is the weakest kept — instead
	// of sorting a dim-length index slice: at the default k = dim/32 the
	// full sort dominated the encode hot path. "Stronger" is larger
	// magnitude with ties to the smaller index, matching the sort order
	// this replaced, so encodings stay deterministic and byte-identical.
	weaker := func(a, b int) bool {
		ma, mb := math.Abs(v[a]), math.Abs(v[b])
		if ma != mb {
			return ma < mb
		}
		return a > b
	}
	kept := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			child := 2*i + 1
			if child >= len(kept) {
				return
			}
			if r := child + 1; r < len(kept) && weaker(kept[r], kept[child]) {
				child = r
			}
			if !weaker(kept[child], kept[i]) {
				return
			}
			kept[i], kept[child] = kept[child], kept[i]
			i = child
		}
	}
	for i := 0; i < dim; i++ {
		if len(kept) < k {
			kept = append(kept, i)
			for j := len(kept) - 1; j > 0; {
				p := (j - 1) / 2
				if !weaker(kept[j], kept[p]) {
					break
				}
				kept[j], kept[p] = kept[p], kept[j]
				j = p
			}
		} else if weaker(kept[0], i) {
			kept[0] = i
			siftDown(0)
		}
	}
	sort.Ints(kept)
	payload := make([]byte, 4+8*k)
	binary.LittleEndian.PutUint32(payload, uint32(k))
	for i, j := range kept {
		binary.LittleEndian.PutUint32(payload[4+4*i:], uint32(j))
		binary.LittleEndian.PutUint32(payload[4+4*k+4*i:], math.Float32bits(float32(v[j])))
	}
	return payload
}

// contractOrder is the top-k ordering contract written as a sort: keys
// are magnitude bit patterns (a total order, NaN > Inf > finite), ties go
// to the smaller index. Unlike the heap it is defined on every input.
func contractOrder(v tensor.Vector) []int {
	key := func(i int) uint64 { return math.Float64bits(v[i]) &^ signBit }
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ka, kb := key(order[a]), key(order[b]); ka != kb {
			return ka > kb
		}
		return order[a] < order[b]
	})
	return order
}

// contractTopK encodes the first k entries of the contract order,
// ascending by index.
func contractTopK(v tensor.Vector, order []int, k int) []byte {
	dim := len(v)
	if k <= 0 {
		k = max(dim/32, 1)
	}
	k = min(k, dim)
	kept := append([]int(nil), order[:k]...)
	sort.Ints(kept)
	payload := make([]byte, 4+8*k)
	binary.LittleEndian.PutUint32(payload, uint32(k))
	for i, j := range kept {
		binary.LittleEndian.PutUint32(payload[4+4*i:], uint32(j))
		binary.LittleEndian.PutUint32(payload[4+4*k+4*i:], math.Float32bits(float32(v[j])))
	}
	return frame(KindTopK, 0, dim, payload)
}

func allFinite(v tensor.Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// parityDims straddle the tile/chunk boundary and include both serving
// models (A: 1 519 params, B: 189 039).
var parityDims = []int{0, 1, 31, 255, 256, 257, 1519, 189_039}

// parityInputs are the value distributions the encoders are compared on.
// The finite ones are the top-k selection's edge cases: nothing to split
// (all zero, all equal up to sign and −0), everything in one histogram
// bucket (one binade, denormals), heavy ties at the threshold.
var parityInputs = []struct {
	name   string
	finite bool
	fill   func(rng *rand.Rand, v tensor.Vector)
}{
	{"gaussian", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			v[i] = rng.NormFloat64() * 0.01
		}
	}},
	{"zero", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			if i%3 == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
	}},
	{"equal", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			v[i] = math.Copysign(0.37, float64(rng.Intn(2))-0.5)
		}
	}},
	{"binade", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			v[i] = math.Copysign(1+rng.Float64(), float64(rng.Intn(2))-0.5)
		}
	}},
	{"denormal", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			v[i] = math.Float64frombits(uint64(rng.Int63n(1<<40)) | uint64(rng.Intn(2))<<63)
		}
	}},
	{"ties", true, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			v[i] = float64(rng.Intn(9)-4) / 8
		}
	}},
	{"lowbits", true, func(rng *rand.Rand, v tensor.Vector) {
		// Keys that differ only in their last few bits: the select must
		// jump to them instead of walking 63 bits a digit at a time.
		for i := range v {
			v[i] = math.Float64frombits(math.Float64bits(0.25) | uint64(rng.Intn(5)))
		}
	}},
	{"consecutive", true, func(rng *rand.Rand, v tensor.Vector) {
		// A dense run of adjacent bit patterns, shuffled: the last digit of
		// the select straddles fewer varying bits than it is wide, and the
		// range it descends into must still be one bucket, not its siblings.
		for i, j := range rng.Perm(len(v)) {
			v[i] = math.Float64frombits(math.Float64bits(1) + uint64(j))
		}
	}},
	{"gapped", true, func(rng *rand.Rand, v tensor.Vector) {
		// Sixteen distinct keys varying at bits 12, 5 and 0–1: the same
		// trap sprung by gaps instead of a dense run.
		for i := range v {
			v[i] = math.Float64frombits(math.Float64bits(1) | uint64(rng.Intn(2))<<12 | uint64(rng.Intn(2))<<5 | uint64(rng.Intn(4)))
		}
	}},
	{"sparse", true, func(rng *rand.Rand, v tensor.Vector) {
		// Fewer non-zeros than the default k keeps: the threshold is zero
		// itself, split by index among the zeros.
		for i := range v {
			if rng.Intn(100) == 0 {
				v[i] = rng.NormFloat64()
			}
		}
	}},
	{"spike", true, func(rng *rand.Rand, v tensor.Vector) {
		// One huge entry up front: the select's guessed range sits far
		// above the threshold and must be abandoned, not trusted.
		for i := range v {
			v[i] = rng.NormFloat64() * 0.01
		}
		if len(v) > 0 {
			v[0] = 1e30
		}
	}},
	{"late", true, func(rng *rand.Rand, v tensor.Vector) {
		// A first tile that says nothing about the rest (all zero, then
		// one huge entry at the very end): the guessed range sits below
		// the threshold.
		for i := tileLen; i < len(v); i++ {
			v[i] = rng.NormFloat64() * 0.01
		}
		if len(v) > 0 {
			v[len(v)-1] = -1e30
		}
	}},
	{"nonfinite", false, func(rng *rand.Rand, v tensor.Vector) {
		for i := range v {
			switch rng.Intn(8) {
			case 0:
				v[i] = math.NaN()
			case 1:
				v[i] = math.Inf(rng.Intn(2)*2 - 1)
			case 2:
				v[i] = math.Copysign(1e300, float64(rng.Intn(2))-0.5)
			default:
				v[i] = rng.NormFloat64()
			}
		}
	}},
}

// checkParity asserts every encoder form of v matches its oracle, top-k at
// each count in ks: the pre-streaming encoders wherever they are defined
// (everything except a top-k over non-finite values, where the heap's
// order was arrival-dependent), the sort-defined contract for top-k on
// every input, and EncodeDiff against EncodeDelta of the materialized
// difference.
func checkParity(t *testing.T, v, base tensor.Vector, ks ...int) {
	t.Helper()
	schemes := []Scheme{RawF64, F32, Q8}
	for _, k := range ks {
		schemes = append(schemes, TopK(k))
	}
	order, finite := contractOrder(v), allFinite(v)
	diff := v.Clone()
	diff.Sub(base)
	for _, s := range schemes {
		got, err := Encode(v, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if s.Kind != KindTopK || finite {
			if !bytes.Equal(got, oracleEncode(v, s, 0)) {
				t.Fatalf("%v dim %d: Encode differs from the oracle encoder", s, len(v))
			}
		}
		if s.Kind == KindTopK && !bytes.Equal(got, contractTopK(v, order, s.TopK)) {
			t.Fatalf("%v dim %d: Encode differs from the ordering contract", s, len(v))
		}
		delta, err := EncodeDelta(v, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got[5] |= flagDelta
		if !bytes.Equal(delta, got) {
			t.Fatalf("%v dim %d: EncodeDelta is not Encode plus the delta flag", s, len(v))
		}

		want, err := EncodeDelta(diff, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		fused, err := EncodeDiff(v, base, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !bytes.Equal(fused, want) {
			t.Fatalf("%v dim %d: EncodeDiff(cur, base) differs from EncodeDelta(cur−base)", s, len(v))
		}
	}
}

func TestEncodeParity(t *testing.T) {
	for _, in := range parityInputs {
		for _, dim := range parityDims {
			t.Run(in.name+"/dim="+strconv.Itoa(dim), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(dim) + 7))
				v, base := tensor.NewVector(dim), tensor.NewVector(dim)
				in.fill(rng, v)
				in.fill(rng, base)
				checkParity(t, v, base, 0, 1, 7, dim/2, dim, dim+5)
			})
		}
	}
}

// TestTopKScatteredBits holds the select to the ordering contract on keys
// that vary only at a few random bit positions (with the odd outlier), at
// dims past the collect limit: every way the digits can straddle the
// varying bits. A range that takes in more than the bucket it descended
// into shows here as a wrong threshold.
func TestTopKScatteredBits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 600; it++ {
		dim := 1 + rng.Intn(7000)
		var vary uint64
		for n := rng.Intn(14); n > 0; n-- {
			vary |= 1 << rng.Intn(63)
		}
		fixed := math.Float64bits(1)
		if it%2 == 0 {
			fixed = uint64(rng.Int63())
		}
		fixed &^= vary
		v := tensor.NewVector(dim)
		for i := range v {
			v[i] = math.Float64frombits(fixed | uint64(rng.Int63())&vary | uint64(rng.Intn(2))<<63)
			if it%3 == 0 && rng.Intn(500) == 0 {
				v[i] = math.Float64frombits(uint64(rng.Int63()))
			}
		}
		order := contractOrder(v)
		for range 4 {
			k := 1 + rng.Intn(dim)
			got, err := Encode(v, TopK(k))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, contractTopK(v, order, k)) {
				t.Fatalf("case %d: dim %d k %d varying bits %#x: Encode differs from the ordering contract", it, dim, k, vary)
			}
		}
	}
}

// TestQ8RoundingParity walks the quantizer across every rounding boundary
// in range: with a chunk maximum of exactly 127 the scale is 1, so each
// element quantizes as itself, and the half-integers with their float64
// neighbours (0.5−ulp is the one the naive +0.5 gets wrong) must land
// where math.Round puts them.
func TestQ8RoundingParity(t *testing.T) {
	var v tensor.Vector
	for n := 0; n <= 127; n++ {
		h := float64(n) + 0.5
		for _, x := range []float64{float64(n), h, math.Nextafter(h, 0), math.Nextafter(h, 200)} {
			v = append(v, x, -x)
		}
	}
	for lo := 0; lo < len(v); lo += q8Chunk - 1 {
		chunk := append(tensor.Vector{127}, v[lo:min(lo+q8Chunk-1, len(v))]...)
		got, err := Encode(chunk, Q8)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleEncode(chunk, Q8, 0); !bytes.Equal(got, want) {
			vals := len(got) - len(chunk)
			for i := range chunk {
				if got[vals+i] != want[vals+i] {
					t.Errorf("q8(%v) = %d, math.Round gives %d", chunk[i], int8(got[vals+i]), int8(want[vals+i]))
				}
			}
		}
	}
}

func TestEncodeDiffDimMismatch(t *testing.T) {
	if _, err := EncodeDiff(tensor.NewVector(4), tensor.NewVector(3), F32); err == nil {
		t.Fatal("EncodeDiff accepted a base of another dimension")
	}
}

// FuzzEncodeParity feeds arbitrary bit patterns — NaNs with payloads,
// infinities, denormals, values far past float32 — through checkParity:
// the first half of the floats is the vector, the second its base.
func FuzzEncodeParity(f *testing.F) {
	pack := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(pack(0.5, -1.25, 0, 3e-9, 1e6, -0.007, 42, 1), uint8(3))
	f.Add(pack(math.NaN(), 1, math.Inf(1), -1, math.NaN(), math.Inf(-1), 1e300, 0), uint8(2))
	f.Add(pack(0.49999999999999994, 127, -0.5, 1.5, 0, 0, 0, 0), uint8(0))
	f.Add(pack(2, -2, 2, -2, 2, 2, 0, 0, 0, 0, 0, 0), uint8(4))
	f.Add([]byte{}, uint8(1))
	// The "gapped" family against a zero base, long enough (two buckets
	// past the select's collect limit) to take a second digit.
	gapped := make([]float64, 2*2200)
	for i := range gapped[:2200] {
		gapped[i] = math.Float64frombits(math.Float64bits(1) | uint64(i%2)<<5 | uint64(i*7%4))
	}
	gapped[0] = math.Float64frombits(math.Float64bits(1) | 1<<11)
	f.Add(pack(gapped...), uint8(200))
	// A Gaussian vector and base past onePassMin, so the one-pass top-k
	// select runs under fuzzing (k = 0 keeps dim/32, 100 a few).
	rng := rand.New(rand.NewSource(4096))
	gauss := make([]float64, 2*onePassMin)
	for i := range gauss {
		gauss[i] = rng.NormFloat64() * 0.01
	}
	f.Add(pack(gauss...), uint8(0))
	f.Add(pack(gauss...), uint8(100))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		n := len(raw) / 16
		v, base := tensor.NewVector(n), tensor.NewVector(n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			base[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(n+i):]))
		}
		checkParity(t, v, base, int(k))
	})
}
