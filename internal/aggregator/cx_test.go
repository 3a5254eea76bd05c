package aggregator

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
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
// payloads (or, for dense cases, Gaussian vectors laced with ±0 and
// subnormals). The first three constants were recorded before the packed
// compare-exchange replaced the scalar loop, the rest before the
// register-resident network replaced the row walk, so a kernel edit that
// moves any bit of any column fails here even if the kernel and its oracle
// change together.
var robustGolden = []struct {
	name  string
	strat rangeStrategy
	n     int
	dense bool
	want  uint64
}{
	{"trimmed/n=13/k=2", TrimmedMean{TrimFrac: 2.5 / 13}, 13, false, 0xdd2ac7e1ef166960},
	{"median/n=13", CoordinateMedian{}, 13, false, 0xe1d716b233239b6a},
	{"trimmed/n=20/k=8", TrimmedMean{TrimFrac: 8.5 / 20}, 20, false, 0xa7b045f73a869fb9}, // quickselect
	{"trimmed/n=13/k=1", TrimmedMean{TrimFrac: 1.5 / 13}, 13, false, 0xfee9e38786178627},
	{"trimmed/n=13/k=3", TrimmedMean{TrimFrac: 3.5 / 13}, 13, false, 0x67d46fd7ab8afd7b},
	{"trimmed/n=13/k=4", TrimmedMean{TrimFrac: 4.5 / 13}, 13, false, 0xfce117e9ffafbe92},
	{"trimmed/n=13/k=5", TrimmedMean{TrimFrac: 5.5 / 13}, 13, false, 0x4dd04415cff47fc1},
	{"trimmed/n=20/k=5", TrimmedMean{TrimFrac: 5.5 / 20}, 20, false, 0x570718e4e2236549},
	{"trimmed/n=20/k=6", TrimmedMean{TrimFrac: 6.5 / 20}, 20, false, 0x30793e00d1b294aa},
	{"dense/trimmed/n=16/k=3", TrimmedMean{TrimFrac: 3.5 / 16}, 16, true, 0x98d2ecff12b07a1c},
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
	dense := make([]Update, 20)
	for i := range dense {
		d := randVec(rng, dim)
		for j := range d {
			switch rng.Intn(64) {
			case 0:
				d[j] = 0
			case 1:
				d[j] = math.Copysign(0, -1)
			case 2:
				d[j] *= 0x1p-1030
			}
		}
		dense[i] = Update{ClientID: int64(i), Delta: d, Weight: 1}
	}
	for _, g := range robustGolden {
		set := ups
		if g.dense {
			set = dense
		}
		for _, workers := range []int{1, 2} {
			global := base.Clone()
			if err := (Parallel{Screen: true}).fork(g.strat, global, set[:g.n], workers); err != nil {
				t.Fatalf("%s workers=%d: %v", g.name, workers, err)
			}
			if got := hashVector(global); got != g.want {
				t.Errorf("%s workers=%d: output hash %#016x, recorded %#016x", g.name, workers, got, g.want)
			}
		}
	}
}

// networkCheck reduces one tile of the dense updates ups (window [0, w))
// with the streaming network as trimmedRange runs it (networkTile) and
// with the row walk (streamTile), and fails unless same holds for every
// column of the two sums and the updates are untouched.
func networkCheck(t testing.TB, ups []Update, w, k int, same func(a, b float64) bool) {
	t.Helper()
	n := len(ups)
	before := make([]tensor.Vector, n)
	for i, u := range ups {
		before[i] = u.Delta.Clone()
	}
	want := streamTile(make([]float64, (2*k+2)*robustStride), ups, 0, w, k)
	buf := make([]float64, networkScratchLen(n, k))
	for i := range buf {
		buf[i] = math.NaN() // a stale workspace must not leak into a sum
	}
	got := networkTile(buf, ups, 0, w, k)
	for c := range want {
		if !same(got[c], want[c]) {
			t.Fatalf("n=%d k=%d w=%d column %d: network %v (%#x), row walk %v (%#x)",
				n, k, w, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
		}
	}
	for i, u := range ups {
		for c := range u.Delta {
			if math.Float64bits(u.Delta[c]) != math.Float64bits(before[i][c]) {
				t.Fatalf("n=%d k=%d w=%d: update %d mutated at %d", n, k, w, i, c)
			}
		}
	}
}

// TestNetworkMatchesStreamTile: the network trimmedRange dispatches to
// gives the row walk's bits for every population n ≤ 20 at every trim
// count k ≤ streamMaxTrim it allows, at widths of one column, odd and even
// few, and the full network tile and one short of it, over columns that
// mix the compare-exchange specials (±0, ±Inf, NaNs, subnormals) with
// small integers that tie, and over the same mix without NaNs, which the
// network reduces itself. Two NaNs match whatever their payloads
// (sameFloat): the row walk's sum is Go code, and which NaN operand its
// add returns is the compiler's choice — the fuzzing build's
// instrumentation flips it. Then one NaN among finite rows, whatever its
// payload and whichever row holds it, gives the row walk's exact bits,
// payload included: also where the NaN ends among the trimmed levels,
// which the network's exchange would keep out of the sum, and in an odd
// last column, which runs beside the padding.
func TestNetworkMatchesStreamTile(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ordered := slices.DeleteFunc(slices.Clone(cxSpecials), math.IsNaN)
	for _, specials := range [][]float64{cxSpecials, ordered} {
		for n := 1; n <= 20; n++ {
			for k := 0; k <= streamMaxTrim && 2*k < n; k++ {
				for _, w := range []int{1, 2, 3, 7, networkTileWidth - 1, networkTileWidth} {
					ups := make([]Update, n)
					for i := range ups {
						d := tensor.NewVector(w)
						for c := range d {
							if rng.Intn(4) == 0 {
								d[c] = specials[rng.Intn(len(specials))]
							} else {
								d[c] = float64(rng.Intn(7) - 3)
							}
						}
						ups[i] = Update{ClientID: int64(i), Delta: d}
					}
					networkCheck(t, ups, w, k, sameFloat)
				}
			}
		}
	}

	payloads := []uint64{
		math.Float64bits(math.NaN()), 0xfff0_0000_0000_0001,
		0x7ff8_0000_0000_0001, 0xffff_ffff_ffff_ffff, 0x7ff0_dead_beef_0000,
	}
	bitsEqual := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 2, 5, 13, 16} {
		for k := 0; k <= streamMaxTrim && 2*k < n; k++ {
			for _, w := range []int{3, networkTileWidth} {
				for row := 0; row < n; row++ {
					ups := make([]Update, n)
					for i := range ups {
						d := tensor.NewVector(w)
						for c := range d {
							d[c] = float64(rng.Intn(7) - 3)
						}
						ups[i] = Update{ClientID: int64(i), Delta: d}
					}
					ups[row].Delta[row*5%w] = math.Float64frombits(payloads[row%len(payloads)])
					networkCheck(t, ups, w, k, bitsEqual)
				}
			}
		}
	}
}

// FuzzStreamNetwork: the property of TestNetworkMatchesStreamTile over
// fuzzed tiles. n (1–20) rows of w (1–37) columns are cut from data, each
// byte one value — a special below len(cxSpecials), otherwise a scrambled
// bit pattern (any exponent, NaNs and subnormals included) — and reduced
// at trim count k ≤ streamMaxTrim, 2k < n. A tile with a NaN is the row
// walk's own, so the last seed has none: the network reduces it itself.
func FuzzStreamNetwork(f *testing.F) {
	f.Add([]byte{0, 1, 4, 5, 2, 3, 9, 12, 40, 200, 7, 8, 13}, uint8(13), uint8(2), uint8(1))
	f.Add([]byte{4, 4, 4, 1, 0, 250, 6, 6}, uint8(20), uint8(6), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(36))
	f.Add(bytes.Repeat([]byte{0, 1, 11, 12, 2, 6, 13, 14, 7, 8, 12, 1, 200}, 5), uint8(12), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, n, k, w uint8) {
		value := func(b byte) float64 {
			if int(b) < len(cxSpecials) {
				return cxSpecials[b]
			}
			return math.Float64frombits(uint64(b) * 0x9e37_79b9_7f4a_7c15)
		}
		rows, width := 1+int(n)%20, 1+int(w)%37
		trim := int(k) % (streamMaxTrim + 1)
		trim = min(trim, (rows-1)/2)
		ups := make([]Update, rows)
		for i := range ups {
			d := tensor.NewVector(width)
			for c := range d {
				j := i*width + c
				if j < len(data) {
					d[c] = value(data[j])
				} else {
					d[c] = value(byte(j*37 + 11))
				}
			}
			ups[i] = Update{ClientID: int64(i), Delta: d}
		}
		networkCheck(t, ups, width, trim, sameFloat)
	})
}
