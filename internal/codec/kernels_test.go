package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flint/internal/tensor"
)

// kernelSpecials are the values each encode kernel must treat exactly as
// its generic twin: NaNs of either sign with and without payload (a
// signalling one among them), both zeros, subnormals, both infinities,
// values past float32's range, and the quantizer's rounding edges at
// inv = 1 — |y| at 126.5, 127 and 127.5, the half-integers and the
// float64 just below each.
var kernelSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), math.Float64frombits(0x7ff0_0000_0000_0001),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1050,
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -1e39, 3.4028235677973366e38,
	126.5, -127, 127.5, math.Nextafter(127, 0), -math.Nextafter(127, 200),
	0.5, -halfPred, 1.5, math.Nextafter(1.5, 0), -2.5, math.Nextafter(-2.5, 0),
}

func packFloats(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// checkKernels holds every kernel to its generic twin on x (and on x cut
// one element in, an 8- rather than 16-byte-aligned start), bit for bit:
// the difference against x reversed, the abs-max, the quantizer at inv
// and at the scale the encoder would derive, both float conversions, the
// q8 decode of codes cut from x's top bits at scales inv, float32(inv)
// and the abs-max, and the filter at inv's key and at the key of x's middle element (each
// clamped to +Inf's: a NaN floor is never passed).
func checkKernels(t *testing.T, x []float64, inv float64) {
	t.Helper()
	for _, x := range [][]float64{x, x[min(1, len(x)):]} {
		n := len(x)
		b := slices.Clone(x)
		slices.Reverse(b)
		got, want := make([]float64, n), make([]float64, n)
		subTile(got, x, b)
		subGeneric(want, x, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sub n=%d [%d]: %#x − %#x = %#x, generic %#x", n, i,
					math.Float64bits(x[i]), math.Float64bits(b[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}

		m := absMax(x)
		if gm := absMaxGeneric(0, x); math.Float64bits(m) != math.Float64bits(gm) {
			t.Fatalf("absMax n=%d: %v, generic %v", n, m, gm)
		}
		invs := []float64{inv}
		if scale := float32(min(m/127, math.MaxFloat32)); scale != 0 {
			invs = append(invs, 1/float64(scale))
		}
		for _, inv := range invs {
			q, gq := make([]byte, n), make([]byte, n)
			quantize(q, x, inv)
			quantizeGeneric(gq, x, inv)
			if i := firstDiff(q, gq); i >= 0 {
				t.Fatalf("quantize n=%d inv=%v [%d]: x=%v → %d, generic %d", n, inv, i, x[i], int8(q[i]), int8(gq[i]))
			}
		}

		f, gf := make([]byte, 4*n), make([]byte, 4*n)
		putF32(f, x)
		putF32Generic(gf, x)
		if i := firstDiff(f, gf); i >= 0 {
			t.Fatalf("putF32 n=%d: x[%d]=%#x differs from the generic", n, i/4, math.Float64bits(x[i/4]))
		}
		d, gd := make([]byte, 8*n), make([]byte, 8*n)
		putF64(d, x)
		putF64Generic(gd, x)
		if !bytes.Equal(d, gd) {
			t.Fatalf("putF64 n=%d differs from the generic", n)
		}

		codes := make([]byte, n)
		for i, v := range x {
			codes[i] = byte(math.Float64bits(v)>>56) ^ byte(37*i) // the sign and top exponent bits, stirred
		}
		for _, scale := range []float64{inv, float64(float32(inv)), m} {
			v, gv := make([]float64, n), make([]float64, n)
			decodeQ8(v, codes, scale)
			decodeQ8Generic(gv, codes, scale)
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(gv[i]) {
					t.Fatalf("decodeQ8 n=%d scale %v [%d]: code %d → %#x, generic %#x", n, scale, i, int8(codes[i]), math.Float64bits(v[i]), math.Float64bits(gv[i]))
				}
			}
		}

		floors := []uint64{min(math.Float64bits(inv)&^signBit, infBits)}
		if n > 0 {
			floors = append(floors, min(math.Float64bits(x[n/2])&^signBit, infBits)) // a key x holds
		}
		for _, floor := range floors {
			const at, lo = 3, 1000 // survivors appended after three earlier ones
			vals, gvals := make([]float64, at+n+1), make([]float64, at+n+1)
			idx, gidx := make([]uint32, at+n+1), make([]uint32, at+n+1)
			c := filterTile(vals, idx, at, x, lo, floor)
			gc := filterGeneric(gvals, gidx, at, x, lo, floor)
			if c != gc {
				t.Fatalf("filter n=%d floor %#x: %d survivors, generic %d", n, floor, c, gc)
			}
			for i := range c {
				if math.Float64bits(vals[i]) != math.Float64bits(gvals[i]) || idx[i] != gidx[i] {
					t.Fatalf("filter n=%d floor %#x: survivor %d is x[%d]=%v, generic x[%d]=%v", n, floor, i, idx[i], vals[i], gidx[i], gvals[i])
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzEncodeKernels holds each SSE2 encode kernel to its generic Go twin,
// bit for bit (checkKernels), on arbitrary float64 bit patterns: data is
// the vector, inv the quantizer's multiplier and the filter's floor. Off
// amd64 the kernels are the generic loops and the fuzz is trivially met.
func FuzzEncodeKernels(f *testing.F) {
	// Every length 0–17 — empty, tails alone, one block plus each tail —
	// over the specials, in both SSE lanes.
	for n := 0; n <= 17; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = kernelSpecials[(i+n)%len(kernelSpecials)]
		}
		f.Add(packFloats(xs...), 1.0)
		f.Add(packFloats(xs...), 0.37)
	}
	// The quantizer's rounding edges at inv = 1: every half-integer to
	// 127.5 and its predecessor, with either sign.
	var half []float64
	for n := 0; n <= 127; n++ {
		h := float64(n) + 0.5
		half = append(half, h, -math.Nextafter(h, 0))
	}
	f.Add(packFloats(half...), 1.0)
	// Model B's last chunk (111 elements) and a chunk with an odd tail, at
	// a scale where some elements saturate.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{111, 255} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		f.Add(packFloats(xs...), 90.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, inv float64) {
		x := make([]float64, len(data)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkKernels(t, x, inv)
	})
}

// TestEncodeKernelsSpecials runs checkKernels over every length 0–67 of a
// shuffled mix of the specials and ordinary values, at a few multipliers.
func TestEncodeKernelsSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n <= 67; n++ {
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			} else {
				x[i] = rng.NormFloat64() * 100
			}
		}
		for _, inv := range []float64{1, 0.5, 1e-300, math.Inf(1), math.NaN()} {
			checkKernels(t, x, inv)
		}
	}
}

// TestTopKOnePassFallback drives the one-pass select into each of its
// fallbacks and holds the result to the ordering contract: a floor the
// sample set above the k-th key (every sampled entry is large, too few
// others are), survivors past their limit mid-pass (a dense run of large
// keys between the sample's points), and ties at the floor (equal keys,
// keys differing in their last bits). A Gaussian vector must take the
// one-pass path.
func TestTopKOnePassFallback(t *testing.T) {
	const dim = 65_536
	stride := dim / sampleLen
	rng := rand.New(rand.NewSource(41))
	gauss := func(v tensor.Vector) {
		for i := range v {
			v[i] = rng.NormFloat64() * 0.01
		}
	}
	cases := []struct {
		name     string
		k        int
		fallback bool
		fill     func(v tensor.Vector)
	}{
		{"gaussian", 0, false, gauss},
		{"sampled-large", 2000, true, func(v tensor.Vector) {
			gauss(v)
			for i := 0; i < dim; i += stride {
				v[i] = 1 + rng.Float64()
			}
		}},
		{"unsampled-run", 1000, true, func(v tensor.Vector) {
			gauss(v)
			for i := 0; i < 9000; i++ {
				if i%stride != 0 {
					v[i] = -1 - rng.Float64()
				}
			}
		}},
		{"all-equal", 0, true, func(v tensor.Vector) {
			for i := range v {
				v[i] = 0.37 * float64(1-2*(i&1))
			}
		}},
		{"low-bits", 0, true, func(v tensor.Vector) {
			for i := range v {
				v[i] = math.Float64frombits(math.Float64bits(0.25) | uint64(rng.Intn(5)))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := tensor.NewVector(dim)
			c.fill(v)
			k := c.k
			if k == 0 {
				k = dim / 32
			}
			var sc topkScratch
			if n := sc.filter(source{cur: v}, k); (n < k) != c.fallback {
				t.Fatalf("filter kept %d of k=%d: fallback %v, want %v", n, k, n < k, c.fallback)
			}
			got, err := Encode(v, TopK(k))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, contractTopK(v, contractOrder(v), k)) {
				t.Fatal("Encode differs from the ordering contract")
			}
		})
	}
}

// TestEncodeAllocs: a warm encode makes one allocation, the blob, for every
// scheme and form at model B's size — the one-pass top-k's survivor
// buffers come from its pool.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	rng := rand.New(rand.NewSource(5))
	cur, base := tensor.NewVector(189_039), tensor.NewVector(189_039)
	for i := range cur {
		cur[i], base[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, s := range []Scheme{RawF64, F32, Q8, TopK(0)} {
		for name, enc := range map[string]func() ([]byte, error){
			"Encode":     func() ([]byte, error) { return Encode(cur, s) },
			"EncodeDiff": func() ([]byte, error) { return EncodeDiff(cur, base, s) },
		} {
			if _, err := enc(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(20, func() { _, _ = enc() }); got != 1 {
				t.Errorf("%s %v: %.0f allocations, want 1", name, s, got)
			}
		}
	}
}

// TestNthKeyMatchesSort: the sample's order statistic is the sorted
// sample's element at every rank, over distinct, tied, constant, sorted
// and reversed keys of lengths 1–40 and the sample's 1 024.
func TestNthKeyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	gens := map[string]func(i int) uint64{
		"random":   func(int) uint64 { return rng.Uint64() },
		"ties":     func(int) uint64 { return uint64(rng.Intn(4)) },
		"constant": func(int) uint64 { return 7 },
		"sorted":   func(i int) uint64 { return uint64(i) },
		"reversed": func(i int) uint64 { return uint64(1<<20 - i) },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 15, 16, 17, 40, sampleLen} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = gen(i)
			}
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			for r := range n {
				if got := nthKey(slices.Clone(keys), r); got != sorted[r] {
					t.Fatalf("%s n=%d: nthKey(%d) = %d, sorted %d", name, n, r, got, sorted[r])
				}
			}
		}
	}
}
