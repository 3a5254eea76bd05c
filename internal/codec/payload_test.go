package codec

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"flint/internal/tensor"
)

func payloadTestVec(rng *rand.Rand, dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestPayloadAccessorsMatchDecode: At, Materialize, Norm2, and the range
// accessors (AddScaledRange, CopyRange) over arbitrary sub-ranges agree
// exactly with the materializing decoder for every scheme, through both
// ParsePayload and DecodePayloadFrom.
func TestPayloadAccessorsMatchDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 255, 256, 300, 1519} {
		for _, s := range []Scheme{RawF64, F32, Q8, TopK(0), TopK(dim)} {
			v := payloadTestVec(rng, dim)
			blob, err := Encode(v, s)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			want, wantScheme, err := Decode(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			parsed, err := ParsePayload(blob)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			streamed, err := DecodePayloadFrom(bytes.NewReader(blob), dim)
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			for name, p := range map[string]*Payload{"parsed": parsed, "streamed": streamed} {
				if p.Dim() != dim || p.scheme != wantScheme {
					t.Fatalf("%s %v: dim %d scheme %v (want %d %v)", name, s, p.Dim(), p.scheme, dim, wantScheme)
				}
				got, err := p.Materialize()
				if err != nil {
					t.Fatalf("%s materialize: %v", name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %v: materialize[%d]=%v want %v", name, s, i, got[i], want[i])
					}
					if a := p.At(i); a != want[i] {
						t.Fatalf("%s %v: At(%d)=%v want %v", name, s, i, a, want[i])
					}
				}
				// Norm2 accumulates the identical squares in the identical
				// order, so it is bit-equal to the dense norm.
				if n := p.Norm2(); n != want.Norm2() {
					t.Fatalf("%s %v: Norm2()=%v want %v", name, s, n, want.Norm2())
				}
				// Range kernel over random windows, including chunk-
				// straddling and empty ones.
				for trial := 0; trial < 20; trial++ {
					lo := rng.Intn(dim + 1)
					hi := lo + rng.Intn(dim-lo+1)
					alpha := rng.NormFloat64()
					dst := payloadTestVec(rng, hi-lo)
					ref := dst.Clone()
					ref.AddScaled(alpha, want[lo:hi])
					p.AddScaledRange(dst, alpha, lo, hi)
					for i := range dst {
						if dst[i] != ref[i] {
							t.Fatalf("%s %v [%d:%d): dst[%d]=%v want %v", name, s, lo, hi, i, dst[i], ref[i])
						}
					}
					cr := payloadTestVec(rng, hi-lo) // overwritten, garbage in
					p.CopyRange(cr, lo, hi)
					for i := range cr {
						if cr[i] != want[lo+i] {
							t.Fatalf("%s %v CopyRange[%d:%d): [%d]=%v want %v", name, s, lo, hi, i, cr[i], want[lo+i])
						}
					}
				}
			}
			streamed.Release()
		}
	}
}

// TestQ8ValueTable: the q8 decode table is the int8 conversion, exactly.
func TestQ8ValueTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := q8Value[b], float64(int8(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q8Value[%#x] = %v, want %v", b, got, want)
		}
	}
}

// q8Blob hand-builds a q8 frame from any chunk size, scale words and value
// bytes — shapes the encoder never emits (it always uses 256-element
// chunks and finite scales) but the wire accepts.
func q8Blob(chunk int, scales []float32, vals []byte) []byte {
	blob := make([]byte, headerSize+4+4*len(scales)+len(vals))
	copy(blob, Magic)
	blob[3] = Version
	blob[4] = byte(KindQ8)
	putU32(blob[8:], uint32(len(vals)))
	p := blob[headerSize:]
	putU32(p, uint32(chunk))
	for c, s := range scales {
		putU32(p[4+4*c:], math.Float32bits(s))
	}
	copy(p[4+4*len(scales):], vals)
	refreshCRC(blob)
	return blob
}

// TestAddScaledGroupMatchesSinglePasses: the group kernel over n = 1..4
// payloads of one family, and over longer mixed sequences whose runs
// break on scheme or q8 chunk size, equals CopyRange → AddScaled applied
// per payload in slice order — bit for bit (top-k value-equal: its skipped
// zeros may flip a -0) — with ±0, NaN and ±Inf in values, destinations
// and q8 scales, zero and negative weights, maximum-magnitude scales, and
// ranges that straddle chunk edges. A NaN only has to stay a NaN: Go fixes
// neither its sign nor its payload, and the hardware returns whichever NaN
// operand the compiler happened to place first.
func TestAddScaledGroupMatchesSinglePasses(t *testing.T) {
	const dim = 1000
	rng := rand.New(rand.NewSource(22))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
	vec := func(n int) tensor.Vector {
		v := payloadTestVec(rng, n)
		for k := 0; k < n/50; k++ {
			v[rng.Intn(n)] = specials[rng.Intn(len(specials))]
		}
		return v
	}
	encoded := func(s Scheme) []byte {
		blob, err := Encode(vec(dim), s)
		if err != nil {
			t.Fatalf("encode %v: %v", s, err)
		}
		return blob
	}
	q8 := func(chunk int) []byte {
		scales := make([]float32, (dim+chunk-1)/chunk)
		for c := range scales {
			scales[c] = float32(rng.ExpFloat64() * 0.01)
			if rng.Intn(8) == 0 {
				scales[c] = float32(specials[rng.Intn(len(specials))]) // MaxFloat64 → +Inf
			}
			if rng.Intn(8) == 0 {
				scales[c] = math.MaxFloat32 * float32(1-2*rng.Intn(2))
			}
		}
		vals := make([]byte, dim)
		rng.Read(vals)
		return q8Blob(chunk, scales, vals)
	}
	families := []struct {
		name string
		blob func() []byte
	}{
		{"raw64", func() []byte { return encoded(RawF64) }},
		{"f32", func() []byte { return encoded(F32) }},
		{"topk", func() []byte { return encoded(TopK(100)) }},
		{"q8/1", func() []byte { return q8(1) }},
		{"q8/7", func() []byte { return q8(7) }},
		{"q8/256", func() []byte { return q8(256) }},
		{"q8/dim", func() []byte { return q8(dim) }},
		{"q8/4096", func() []byte { return q8(4096) }},
	}
	alphaPool := []float64{0, math.Copysign(0, -1), 1, -1, -2.5, 1e-300, 3e300}
	check := func(name string, blobs [][]byte) {
		t.Helper()
		ps := make([]*Payload, len(blobs))
		alphas := make([]float64, len(blobs))
		topk := false
		for i, b := range blobs {
			p, err := ParsePayload(b)
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			ps[i] = p
			topk = topk || p.scheme.Kind == KindTopK
			alphas[i] = rng.NormFloat64()
			if rng.Intn(3) == 0 {
				alphas[i] = alphaPool[rng.Intn(len(alphaPool))]
			}
		}
		ranges := [][2]int{{0, dim}, {0, 0}, {6, 8}, {255, 257}, {999, 1000}}
		for trial := 0; trial < 8; trial++ {
			lo := rng.Intn(dim + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(dim-lo+1)})
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			got := vec(hi - lo)
			want := got.Clone()
			tmp := tensor.NewVector(hi - lo)
			for u, p := range ps {
				p.CopyRange(tmp, lo, hi)
				want.AddScaled(alphas[u], tmp)
			}
			AddScaledGroup(got, ps, alphas, lo, hi)
			for i := range got {
				g, w := got[i], want[i]
				if math.Float64bits(g) == math.Float64bits(w) || g != g && w != w || topk && g == w {
					continue
				}
				t.Fatalf("%s [%d,%d): [%d] = %v want %v", name, lo, hi, lo+i, g, w)
			}
		}
	}
	for _, f := range families {
		for n := 1; n <= 4; n++ {
			blobs := make([][]byte, n)
			for i := range blobs {
				blobs[i] = f.blob()
			}
			check(fmt.Sprintf("%s n=%d", f.name, n), blobs)
		}
	}
	for trial := 0; trial < 40; trial++ {
		blobs := make([][]byte, 1+rng.Intn(9))
		for i := range blobs {
			blobs[i] = families[rng.Intn(len(families))].blob()
		}
		check(fmt.Sprintf("mixed trial %d", trial), blobs)
	}
}

// TestPayloadAllFinite: the wire-byte screen agrees with a decode-and-
// scan for clean payloads and flags smuggled NaN/Inf bit patterns in
// every scheme's value region.
func TestPayloadAllFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 600
	v := payloadTestVec(rng, dim)
	for _, s := range []Scheme{RawF64, F32, Q8, TopK(40)} {
		blob, err := Encode(v, s)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		p, err := ParsePayload(blob)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if !p.AllFinite() {
			t.Fatalf("%v: clean payload reported non-finite", s)
		}
	}
	// Corrupt one value per scheme to a NaN/Inf bit pattern, refresh the
	// CRC, and require the screen to catch it.
	poison := func(blob []byte, off int, bits32 uint32, bits64 uint64, wide bool) []byte {
		out := bytes.Clone(blob)
		if wide {
			putU64(out[headerSize+off:], bits64)
		} else {
			putU32(out[headerSize+off:], bits32)
		}
		refreshCRC(out)
		return out
	}
	cases := []struct {
		s    Scheme
		off  func(k int) int // offset into payload of a value word
		wide bool
	}{
		{RawF64, func(int) int { return 8 * 7 }, true},
		{F32, func(int) int { return 4 * 7 }, false},
		{Q8, func(int) int { return 4 }, false},               // first chunk scale
		{TopK(40), func(k int) int { return 4 + 4*k }, false}, // first kept value
	}
	for _, tc := range cases {
		blob, err := Encode(v, tc.s)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		k := tc.s.TopK
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			evil := poison(blob, tc.off(k), math.Float32bits(float32(bad)), math.Float64bits(bad), tc.wide)
			p, err := ParsePayload(evil)
			if err != nil {
				t.Fatalf("%v: parse poisoned: %v", tc.s, err)
			}
			if p.AllFinite() {
				t.Fatalf("%v: smuggled %v not caught", tc.s, bad)
			}
		}
	}
}

func putU32(b []byte, x uint32) {
	b[0] = byte(x)
	b[1] = byte(x >> 8)
	b[2] = byte(x >> 16)
	b[3] = byte(x >> 24)
}

func putU64(b []byte, x uint64) {
	putU32(b, uint32(x))
	putU32(b[4:], uint32(x>>32))
}

func refreshCRC(blob []byte) {
	putU32(blob[12:], crc32.ChecksumIEEE(blob[headerSize:]))
}

// TestPayloadReleasePoisons: a released pooled payload must fail loudly
// on later access (the aliasing contract), and Release must be
// idempotent.
func TestPayloadReleasePoisons(t *testing.T) {
	v := payloadTestVec(rand.New(rand.NewSource(1)), 300)
	blob, err := Encode(v, Q8)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	p, err := DecodePayloadFrom(bytes.NewReader(blob), 300)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	p.Release()
	p.Release() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatalf("At on released payload did not panic")
		}
	}()
	_ = p.At(0)
}

// TestDecodePayloadFromReuse: sequential decode/release cycles reuse the
// pooled buffer rather than growing fresh ones, observable as near-zero
// per-cycle allocation.
func TestDecodePayloadFromReuse(t *testing.T) {
	v := payloadTestVec(rand.New(rand.NewSource(2)), 4096)
	blob, err := Encode(v, RawF64)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := bytes.NewReader(blob)
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(blob)
		p, err := DecodePayloadFrom(r, 4096)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		p.Release()
	})
	// One Payload struct (+ pool bookkeeping) per cycle is fine; a fresh
	// 32 KiB payload buffer per cycle is the regression this guards.
	if avg > 4 {
		t.Fatalf("DecodePayloadFrom+Release allocates %.1f objects/op; pooled buffer not reused?", avg)
	}
}

// TestNorm2GroupMatchesNorm2: Norm2Group gives every member Norm2's bits
// (a NaN only has to stay a NaN) over runs of q8 payloads that share a
// layout — walked as groups — and runs broken by a chunk size, a dimension
// or a scheme, with NaN, ±Inf and extreme scales among the chunks.
func TestNorm2GroupMatchesNorm2(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	q8 := func(dim, chunk int) *Payload {
		scales := make([]float32, (dim+chunk-1)/chunk)
		for c := range scales {
			scales[c] = float32(rng.ExpFloat64() * 0.01)
			switch rng.Intn(200) {
			case 0:
				scales[c] = float32(math.NaN())
			case 1:
				scales[c] = float32(math.Inf(1))
			case 2:
				scales[c] = math.MaxFloat32
			}
		}
		vals := make([]byte, dim)
		rng.Read(vals)
		p, err := ParsePayload(q8Blob(chunk, scales, vals))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	f32 := func(dim int) *Payload {
		blob, err := Encode(payloadTestVec(rng, dim), F32)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParsePayload(blob)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, ps := range map[string][]*Payload{
		"one group":     {q8(1000, 256), q8(1000, 256), q8(1000, 256), q8(1000, 256)},
		"groups+tail":   {q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7), q8(777, 7)},
		"chunk break":   {q8(1000, 256), q8(1000, 256), q8(1000, 100), q8(1000, 256), q8(1000, 256), q8(1000, 256), q8(1000, 256)},
		"dim break":     {q8(1000, 256), q8(999, 256), q8(1000, 256), q8(1000, 256), q8(1000, 256)},
		"dim break 4th": {q8(1000, 256), q8(1000, 256), q8(1000, 256), q8(999, 256)},
		"scheme break":  {f32(300), q8(300, 256), q8(300, 256), q8(300, 256), q8(300, 256), f32(300)},
		"short":         {q8(10, 4), q8(10, 4), q8(10, 4)},
		"empty":         {},
	} {
		norms := make([]float64, len(ps))
		Norm2Group(norms, ps)
		for m, p := range ps {
			if want := p.Norm2(); math.Float64bits(norms[m]) != math.Float64bits(want) && !(norms[m] != norms[m] && want != want) {
				t.Errorf("%s: member %d norm %v (%#x), Norm2 %v (%#x)", name, m, norms[m], math.Float64bits(norms[m]), want, math.Float64bits(want))
			}
		}
	}
}

// TestWriteRaw64MatchesEncode: WriteRaw64 writes Encode(v, RawF64) byte for
// byte — empty, odd-length and specials-laced vectors included — and
// passes a failing writer's error back. So does a version buffer behind
// every prefix length 0–9 (each alignment pad), sealed over v or filled
// with SetBlob from that blob, while its params stay v bit for bit; the
// aliasing buffer and its copying twin write the same bytes, and SetBlob
// refuses what is not a raw64 blob of the buffer's dim.
func TestWriteRaw64MatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	prefix := []byte("FLNT\x01\x05hello")
	for _, dim := range []int{0, 1, 7, 256, 1519, 4097, 189039} {
		v := payloadTestVec(rng, dim)
		for i := range v {
			if rng.Intn(8) == 0 {
				v[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			}
		}
		want, err := Encode(v, RawF64)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteRaw64(&got, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("dim %d: WriteRaw64 differs from Encode", dim)
		}
		for n := 0; n <= 9; n++ {
			for name, build := range map[string]func([]byte, int) VersionBuf{"buffer": NewVersionBuf, "copying twin": newVersionBufGeneric} {
				sealed := build(prefix[:n], dim)
				copy(sealed.Params(), v)
				sealed.Seal()
				set := build(prefix[:n], dim)
				if err := set.SetBlob(want); err != nil {
					t.Fatalf("dim %d prefix %d %s: SetBlob: %v", dim, n, name, err)
				}
				for how, b := range map[string]VersionBuf{"sealed": sealed, "SetBlob": set} {
					raw := b.Bytes()
					if !bytes.Equal(raw[:n], prefix[:n]) || !bytes.Equal(raw[n:], want) {
						t.Fatalf("dim %d prefix %d: %s %s bytes differ from prefix + Encode", dim, n, how, name)
					}
					for i, x := range b.Params() {
						if math.Float64bits(x) != math.Float64bits(v[i]) {
							t.Fatalf("dim %d prefix %d: %s %s param %d = %#x, want %#x", dim, n, how, name, i, math.Float64bits(x), math.Float64bits(v[i]))
						}
					}
				}
			}
		}
	}
	if err := WriteRaw64(failWriter{}, tensor.NewVector(3)); err == nil {
		t.Fatal("a failing writer's error was dropped")
	}
	v := payloadTestVec(rng, 33)
	good, err := Encode(v, RawF64)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xFF
	for name, build := range map[string]func([]byte, int) VersionBuf{"buffer": NewVersionBuf, "copying twin": newVersionBufGeneric} {
		b := build(prefix[:3], len(v))
		if err := b.SetBlob(good); err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{flipped, mustEncodeBlob(t, v, F32, false), mustEncodeBlob(t, v, RawF64, true), mustEncodeBlob(t, v[1:], RawF64, false)} {
			if err := b.SetBlob(bad); err == nil {
				t.Fatalf("%s: SetBlob took a bad blob", name)
			}
			if !bytes.Equal(b.Bytes()[3:], good) || math.Float64bits(b.Params()[5]) != math.Float64bits(v[5]) {
				t.Fatalf("%s: a refused SetBlob changed the buffer", name)
			}
		}
	}
}

func mustEncodeBlob(t *testing.T, v tensor.Vector, s Scheme, delta bool) []byte {
	t.Helper()
	enc := Encode
	if delta {
		enc = EncodeDelta
	}
	blob, err := enc(v, s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
