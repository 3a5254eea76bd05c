package aggregator

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"flint/internal/tensor"
)

// cxSpecials are the values a compare-exchange must order exactly as Go's
// min and max do: both zeros, both infinities, NaNs of either sign and
// payload, subnormals, the finite extremes, and a few ordinary values to
// tie against.
var cxSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, 3,
}

// sameFloat is bit equality, except that any two NaNs match: only a NaN's
// payload may differ between the kernels.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// cxCheck runs compareExchange and compareExchangeGeneric on copies of buf,
// with lo = buf[loOff:loOff+n] and hi = buf[hiOff:hiOff+hiLen], and fails
// unless every element of the two copies ends the same — hi's tail beyond
// n and the gaps between the slices included, which neither may touch.
func cxCheck(t testing.TB, buf []float64, loOff, n, hiOff, hiLen int) {
	t.Helper()
	want := append([]float64(nil), buf...)
	compareExchangeGeneric(want[loOff:loOff+n], want[hiOff:hiOff+hiLen])
	got := append([]float64(nil), buf...)
	compareExchange(got[loOff:loOff+n], got[hiOff:hiOff+hiLen])
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("lo=[%d:+%d] hi=[%d:+%d]: buf[%d] = %v (%#x), generic %v (%#x); input %v",
				loOff, n, hiOff, hiLen, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), buf)
		}
	}
}

// TestCompareExchangeMatchesGeneric: the packed kernel gives the generic
// loop's bits on every ordered pair of special values, in both SSE lanes
// and in the odd last column, and on random mixes of specials and ordinary
// values at every length 0–67, with lo and hi cut at odd offsets from one
// shared buffer and hi longer than lo.
func TestCompareExchangeMatchesGeneric(t *testing.T) {
	var as, bs []float64
	for _, a := range cxSpecials {
		for _, b := range cxSpecials {
			as, bs = append(as, a), append(bs, b)
		}
	}
	for shift := 0; shift < 2; shift++ { // every pair once in each lane
		n := len(as) + shift
		buf := make([]float64, 2*n)
		copy(buf[shift:], as)
		copy(buf[n+shift:], bs)
		cxCheck(t, buf, 0, n, n, n)
	}

	rng := rand.New(rand.NewSource(25))
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return cxSpecials[rng.Intn(len(cxSpecials))]
		}
		return float64(rng.Intn(7) - 3)
	}
	for n := 0; n <= 67; n++ {
		for _, loOff := range []int{0, 1, 3} {
			for _, extra := range []int{0, 1, 2} {
				hiOff := loOff + n + 1 + loOff%2 // odd or even start, one-element gap
				buf := make([]float64, hiOff+n+extra+1)
				for i := range buf {
					buf[i] = draw()
				}
				cxCheck(t, buf, loOff, n, hiOff, n+extra)
			}
		}
	}
}

// TestCompareExchangeShortHi: a hi with room for fewer columns than lo is a
// bounds failure, as it is for the generic loop, never a write past hi.
func TestCompareExchangeShortHi(t *testing.T) {
	for name, cx := range map[string]func(lo, hi []float64){
		"compareExchange": compareExchange, "compareExchangeGeneric": compareExchangeGeneric,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: len(hi) < len(lo) did not panic", name)
				}
			}()
			buf := make([]float64, 8)
			cx(buf[:4], buf[4:7:7])
		}()
	}
}

// FuzzCompareExchange: the property of TestCompareExchangeMatchesGeneric
// over fuzzed columns. Each byte of data is one value — a special below
// len(cxSpecials), otherwise a scrambled bit pattern (any exponent, NaNs
// and subnormals included); byte 2c is lo's column c and byte 2c+1 hi's.
// off picks lo's offset and the gap before hi, extra how much longer hi is.
func FuzzCompareExchange(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 3, 4, 12, 12, 5, 9, 10}, uint8(1), uint8(1))
	f.Add([]byte{200, 13, 6, 7, 8, 255, 1, 0, 77}, uint8(6), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off, extra uint8) {
		value := func(b byte) float64 {
			if int(b) < len(cxSpecials) {
				return cxSpecials[b]
			}
			return math.Float64frombits(uint64(b) * 0x9e37_79b9_7f4a_7c15)
		}
		n := len(data) / 2
		loOff, hiLen := int(off%4), n+int(extra%4)
		hiOff := loOff + n + int(off/4%3)
		buf := make([]float64, hiOff+hiLen)
		for i := range buf {
			buf[i] = value(byte(i*37 + 11))
		}
		for c := 0; c < n; c++ {
			buf[loOff+c], buf[hiOff+c] = value(data[2*c]), value(data[2*c+1])
		}
		cxCheck(t, buf, loOff, n, hiOff, hiLen)
	})
}

// robustGolden pins the published bits of the defended reducers: FNV-64a of
// the little-endian float64 output of each case below, over fixed-seed q8
// payloads. The constants were recorded before the packed compare-exchange
// replaced the scalar loop, so a kernel edit that moves any bit of any
// column fails here even if the kernel and its oracle change together.
var robustGolden = []struct {
	name  string
	strat rangeStrategy
	n     int
	want  uint64
}{
	{"trimmed/n=13/k=2", TrimmedMean{TrimFrac: 2.5 / 13}, 13, 0xdd2ac7e1ef166960},
	{"median/n=13", CoordinateMedian{}, 13, 0xe1d716b233239b6a},
	{"trimmed/n=20/k=8", TrimmedMean{TrimFrac: 8.5 / 20}, 20, 0xa7b045f73a869fb9}, // quickselect
}

func hashVector(v tensor.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRobustReduceGolden: at a dimension that crosses tile edges and, with
// two workers, a shard edge mid-tile, every robust case publishes exactly
// the recorded bits, sequentially and sharded.
func TestRobustReduceGolden(t *testing.T) {
	const dim = 3*robustTile + 111
	rng := rand.New(rand.NewSource(25))
	base := randVec(rng, dim)
	ups := make([]Update, 20)
	for i := range ups {
		ups[i], _ = wireAndDense(t, q8Blob(rng, dim, 256), int64(i), 1, 0)
	}
	for _, g := range robustGolden {
		for _, workers := range []int{1, 2} {
			global := base.Clone()
			if err := (Parallel{Screen: true}).fork(g.strat, global, ups[:g.n], workers); err != nil {
				t.Fatalf("%s workers=%d: %v", g.name, workers, err)
			}
			if got := hashVector(global); got != g.want {
				t.Errorf("%s workers=%d: output hash %#016x, recorded %#016x", g.name, workers, got, g.want)
			}
		}
	}
}
