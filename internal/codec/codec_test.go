package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"flint/internal/tensor"
)

func randVec(n int, seed int64, scale float64) tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}

func TestRawF64RoundTripExact(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 1519, 4096} {
		v := randVec(n, int64(n)+1, 3.7)
		blob, err := Encode(v, RawF64)
		if err != nil {
			t.Fatal(err)
		}
		got, s, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind != KindRawF64 {
			t.Fatalf("scheme = %v", s)
		}
		if len(got) != n {
			t.Fatalf("dim %d, want %d", len(got), n)
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("n=%d elem %d: %v != %v", n, i, got[i], v[i])
			}
		}
	}
}

func TestF32RoundTripRelativeError(t *testing.T) {
	v := randVec(4096, 2, 0.05)
	blob, err := Encode(v, F32)
	if err != nil {
		t.Fatal(err)
	}
	got, s, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s != F32 {
		t.Fatalf("scheme = %v", s)
	}
	for i := range v {
		if diff := math.Abs(got[i] - v[i]); diff > math.Abs(v[i])*1e-6 {
			t.Fatalf("elem %d: |%v - %v| = %v", i, got[i], v[i], diff)
		}
	}
}

// TestQ8ErrorBound is the quantization property test: every element's
// reconstruction error is bounded by half its chunk's scale (plus the
// float32 rounding of the scale itself).
func TestQ8ErrorBound(t *testing.T) {
	// Mixed magnitudes across chunks, dims straddling chunk boundaries.
	for _, n := range []int{1, 255, 256, 257, 1519, 8192} {
		v := randVec(n, int64(n)+7, 0.01)
		// Give alternating chunks wildly different magnitudes so a
		// global scale would fail where per-chunk scales pass.
		for i := range v {
			if (i/q8Chunk)%2 == 1 {
				v[i] *= 1e4
			}
		}
		blob, err := Encode(v, Q8)
		if err != nil {
			t.Fatal(err)
		}
		got, s, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if s != Q8 {
			t.Fatalf("scheme = %v", s)
		}
		for c := 0; c*q8Chunk < n; c++ {
			lo, hi := c*q8Chunk, (c+1)*q8Chunk
			if hi > n {
				hi = n
			}
			maxAbs := 0.0
			for _, x := range v[lo:hi] {
				if a := math.Abs(x); a > maxAbs {
					maxAbs = a
				}
			}
			scale := float64(float32(maxAbs / 127))
			bound := 0.5*scale + 1e-6*maxAbs + 1e-15
			for i := lo; i < hi; i++ {
				if diff := math.Abs(got[i] - v[i]); diff > bound {
					t.Fatalf("n=%d elem %d: error %v exceeds bound %v (scale %v)", n, i, diff, bound, scale)
				}
			}
		}
	}
}

// TestTopKReconstruction verifies the sparse property: exactly the k
// largest-magnitude entries survive (at float32 precision), all other
// coordinates decode to zero.
func TestTopKReconstruction(t *testing.T) {
	n, k := 1000, 25
	v := randVec(n, 11, 1)
	blob, err := Encode(v, TopK(k))
	if err != nil {
		t.Fatal(err)
	}
	got, s, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindTopK || s.TopK != k {
		t.Fatalf("scheme = %v", s)
	}
	// The kept set must be the k largest magnitudes.
	threshold := math.Inf(1)
	kept := 0
	for i := range got {
		if got[i] != 0 {
			kept++
			if a := math.Abs(v[i]); a < threshold {
				threshold = a
			}
			if got[i] != float64(float32(v[i])) {
				t.Fatalf("elem %d: kept value %v, want %v", i, got[i], float64(float32(v[i])))
			}
		}
	}
	if kept != k {
		t.Fatalf("kept %d entries, want %d", kept, k)
	}
	for i := range got {
		if got[i] == 0 && math.Abs(v[i]) > threshold {
			t.Fatalf("elem %d: |%v| > kept threshold %v but was dropped", i, v[i], threshold)
		}
	}
}

func TestTopKDefaultCount(t *testing.T) {
	v := randVec(640, 3, 1)
	blob, err := Encode(v, Scheme{Kind: KindTopK})
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s.TopK != 640/32 {
		t.Fatalf("default top-k = %d, want %d", s.TopK, 640/32)
	}
}

func TestDecodeErrors(t *testing.T) {
	v := randVec(64, 5, 1)
	blob, err := Encode(v, F32)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		fn(b)
		return b
	}
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"short", blob[:10], ErrTooShort},
		{"magic", mutate(func(b []byte) { b[0] = 'X' }), ErrMagic},
		{"version", mutate(func(b []byte) { b[3] = 99 }), ErrVersion},
		{"scheme", mutate(func(b []byte) { b[4] = 200 }), ErrScheme},
		{"checksum", mutate(func(b []byte) { b[20] ^= 0xFF }), ErrChecksum},
		{"truncated payload", func() []byte {
			b := append([]byte(nil), blob[:len(blob)-8]...)
			binary.LittleEndian.PutUint32(b[12:], crc32.ChecksumIEEE(b[16:]))
			return b
		}(), ErrPayload},
		{"dim too large", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], MaxDim+1)
		}), ErrDim},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.blob); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// A header-only blob declaring a huge dim must be rejected on payload
// length before Decode pays the dim-sized vector allocation — 16 hostile
// bytes on the wire must not buy a MaxDim-element make.
func TestDecodeHeaderOnlyHugeDim(t *testing.T) {
	for _, kind := range []Kind{KindRawF64, KindF32, KindQ8} {
		blob := make([]byte, 16)
		copy(blob, Magic)
		blob[3] = Version
		blob[4] = byte(kind)
		binary.LittleEndian.PutUint32(blob[8:], MaxDim) // passes the dim cap
		// CRC of the empty payload is 0, which the zeroed header already
		// holds, so the checksum check passes too.
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := Decode(blob); !errors.Is(err, ErrPayload) {
				t.Fatalf("kind %d: err = %v, want %v", kind, err, ErrPayload)
			}
		})
		// The error path may allocate for the message, but never the
		// 128 MiB vector (which would be one huge alloc; give headroom
		// for fmt's small ones).
		if allocs > 8 {
			t.Errorf("kind %d: %v allocs on reject path", kind, allocs)
		}
	}
}

func TestSchemeStringParseRoundTrip(t *testing.T) {
	for _, s := range []Scheme{RawF64, F32, Q8, TopK(128), {Kind: KindTopK}} {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatalf("parse %q: %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	for _, bad := range []string{"", "gob", "q8:4", "topk:-1", "topk:x"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}

// TestPayloadSizeVsJSON guards the refactor's headline claim: the binary
// schemes shrink a dense update at least 4x vs the legacy JSON []float64
// encoding.
func TestPayloadSizeVsJSON(t *testing.T) {
	v := randVec(8192, 9, 0.01)
	jsonBytes, err := json.Marshal([]float64(v))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{F32, Q8} {
		blob, err := Encode(v, s)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(len(jsonBytes)) / float64(len(blob)); ratio < 4 {
			t.Errorf("%s: JSON %d bytes / binary %d bytes = %.2fx, want >= 4x",
				s, len(jsonBytes), len(blob), ratio)
		}
	}
}

// TestDeltaRoundTrip checks the delta frame across every scheme: a raw64
// delta reproduces new = base + diff exactly; lossy schemes stay within
// their usual error bounds; and the frame is distinguishable from a full
// blob at every layer (IsDelta, ApplyDelta's ErrNotDelta).
func TestDeltaRoundTrip(t *testing.T) {
	base := randVec(1519, 3, 1.0)
	cur := base.Clone()
	step := randVec(1519, 4, 0.01)
	cur.Add(step)
	diff := cur.Clone()
	diff.Sub(base)
	for _, s := range []Scheme{RawF64, F32, Q8, TopK(0)} {
		blob, err := EncodeDelta(diff, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !IsDelta(blob) {
			t.Fatalf("%v: delta blob not flagged", s)
		}
		// The frame still decodes as a plain blob (to the raw diff).
		decoded, ds, err := Decode(blob)
		if err != nil {
			t.Fatalf("%v: decode delta frame: %v", s, err)
		}
		if ds.Kind != s.Kind || len(decoded) != len(diff) {
			t.Fatalf("%v: decoded scheme %v dim %d", s, ds, len(decoded))
		}
		got, _, err := ApplyDelta(base, blob)
		if err != nil {
			t.Fatalf("%v: apply: %v", s, err)
		}
		if s == RawF64 {
			for i := range got {
				if got[i] != cur[i] {
					t.Fatalf("raw64 delta not exact at %d: %g != %g", i, got[i], cur[i])
				}
			}
			continue
		}
		// Lossy schemes: the reconstruction error is bounded by the
		// scheme's own error on the diff, never the base (which is
		// carried exactly).
		maxErr := 0.0
		for i := range got {
			if e := math.Abs(got[i] - cur[i]); e > maxErr {
				maxErr = e
			}
		}
		bound := 0.05 // generous: topk drops most of a dense small diff
		if maxErr > bound {
			t.Fatalf("%v: delta reconstruction error %g > %g", s, maxErr, bound)
		}
	}
}

// TestDeltaErrors pins the delta frame's failure contract.
func TestDeltaErrors(t *testing.T) {
	base := randVec(64, 5, 1)
	diff := randVec(64, 6, 0.01)

	// A full blob is not a delta: flagless ApplyDelta must refuse.
	full, err := Encode(diff, F32)
	if err != nil {
		t.Fatal(err)
	}
	if IsDelta(full) {
		t.Fatal("full blob reports IsDelta")
	}
	if _, _, err := ApplyDelta(base, full); !errors.Is(err, ErrNotDelta) {
		t.Fatalf("ApplyDelta(full blob) = %v, want ErrNotDelta", err)
	}

	// Dimension mismatch against the base is a protocol error.
	blob, err := EncodeDelta(diff, F32)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyDelta(base[:32], blob); !errors.Is(err, ErrPayload) {
		t.Fatalf("ApplyDelta(wrong base dim) = %v, want ErrPayload", err)
	}

	// Corruption is still caught underneath the delta flag.
	corrupt := append([]byte(nil), blob...)
	corrupt[20] ^= 0xFF
	if _, _, err := ApplyDelta(base, corrupt); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ApplyDelta(corrupt) = %v, want ErrChecksum", err)
	}

	// Garbage is rejected before any base math happens.
	if _, _, err := ApplyDelta(base, []byte("nonsense")); err == nil {
		t.Fatal("ApplyDelta(garbage) accepted")
	}
}

// TestDeltaDoesNotMutateBase guards ApplyDelta's value semantics: callers
// cache base vectors (the coordinator's version ring, fleet devices'
// last-applied params), so folding a delta in place would corrupt them.
func TestDeltaDoesNotMutateBase(t *testing.T) {
	base := randVec(256, 7, 1)
	snapshot := base.Clone()
	diff := randVec(256, 8, 1)
	blob, err := EncodeDelta(diff, RawF64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyDelta(base, blob); err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != snapshot[i] {
			t.Fatalf("base mutated at %d", i)
		}
	}
}

// TestDeltaDownlinkReduction pins the delta-broadcast headline claim on
// the 189k-param model (zoo model B's dimension): a q8 delta frame is at
// least 3x smaller than the full f32 broadcast it replaces.
func TestDeltaDownlinkReduction(t *testing.T) {
	const dim = 189_039
	cur := randVec(dim, 21, 0.05)
	diff := randVec(dim, 22, 0.001) // one committed round's movement
	full, err := Encode(cur, F32)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeDelta(diff, Q8)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(full)) / float64(len(delta)); ratio < 3 {
		t.Fatalf("delta downlink reduction %.2fx (full %d bytes, delta %d bytes), want >= 3x",
			ratio, len(full), len(delta))
	}
}

// decodeFrom is the streaming decode a transport performs on a request
// body: DecodePayloadFrom, Materialize, then Release of the pooled buffer.
func decodeFrom(r io.Reader, wantDim int) (tensor.Vector, Scheme, error) {
	p, err := DecodePayloadFrom(r, wantDim)
	if err != nil {
		return nil, Scheme{}, err
	}
	defer p.Release()
	v, err := p.Materialize()
	if err != nil {
		return nil, Scheme{}, err
	}
	return v, p.scheme, nil
}

// countingReader tracks how many bytes decodeFrom consumed from the
// stream, so tests can pin the "validate before buffering" contract.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestDecodeFromMatchesDecode(t *testing.T) {
	v := randVec(4096, 31, 0.02)
	for _, s := range []Scheme{RawF64, F32, Q8, TopK(0), TopK(7)} {
		blob, err := Encode(v, s)
		if err != nil {
			t.Fatal(err)
		}
		want, wantScheme, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		got, gotScheme, err := decodeFrom(bytes.NewReader(blob), len(v))
		if err != nil {
			t.Fatalf("%v: decodeFrom: %v", s, err)
		}
		if gotScheme != wantScheme {
			t.Fatalf("%v: scheme %v, want %v", s, gotScheme, wantScheme)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: dim %d, want %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: element %d = %g, want %g", s, i, got[i], want[i])
			}
		}
	}
	// Delta frames stream-decode too, returning the raw difference like
	// Decode does.
	blob, err := EncodeDelta(v, Q8)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeFrom(bytes.NewReader(blob), len(v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delta element %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestDecodeFromDimMismatchStopsAtHeader(t *testing.T) {
	blob, err := Encode(randVec(1024, 33, 1), F32)
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: bytes.NewReader(blob)}
	_, _, err = decodeFrom(cr, 999)
	if !errors.Is(err, ErrDim) {
		t.Fatalf("dim mismatch error = %v, want ErrDim", err)
	}
	// The wrong-sized payload must never have been buffered: only the
	// 16-byte header was consumed.
	if cr.n > 16 {
		t.Fatalf("decodeFrom read %d bytes past a rejected header", cr.n)
	}
}

func TestDecodeFromLeavesTrailingBytes(t *testing.T) {
	blob, err := Encode(randVec(256, 35, 1), Q8)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte{}, blob...), "trailing"...)
	r := bytes.NewReader(stream)
	if _, _, err := decodeFrom(r, 256); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "trailing" {
		t.Fatalf("stream remainder = %q, want the trailing bytes untouched", rest)
	}
}

func TestDecodeFromErrors(t *testing.T) {
	v := randVec(256, 37, 1)
	blob, err := Encode(v, F32)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated header.
	if _, _, err := decodeFrom(bytes.NewReader(blob[:7]), 0); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short header error = %v, want ErrTooShort", err)
	}
	// Truncated payload.
	if _, _, err := decodeFrom(bytes.NewReader(blob[:len(blob)-9]), 256); !errors.Is(err, ErrPayload) {
		t.Fatalf("short payload error = %v, want ErrPayload", err)
	}
	// Corrupt payload byte → checksum failure.
	bad := append([]byte{}, blob...)
	bad[20] ^= 0xFF
	if _, _, err := decodeFrom(bytes.NewReader(bad), 256); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt payload error = %v, want ErrChecksum", err)
	}
	// A non-codec read error surfaces wrapped, not swallowed.
	failing := io.MultiReader(bytes.NewReader(blob[:30]), iotest.ErrReader(errBoom))
	if _, _, err := decodeFrom(failing, 256); !errors.Is(err, errBoom) {
		t.Fatalf("reader error = %v, want errBoom in chain", err)
	}
}

var errBoom = errors.New("boom")

func TestDecodeFromUntrustedDimClaims(t *testing.T) {
	// With wantDim=0 the declared length is untrusted: a 16-byte header
	// claiming a MaxDim raw64 vector, followed by nothing, must fail
	// without the stream ever delivering (or the decoder allocating
	// ahead of) the claimed 128 MiB.
	hdr := make([]byte, 16)
	copy(hdr, Magic)
	hdr[3] = Version
	hdr[4] = byte(KindRawF64)
	binary.LittleEndian.PutUint32(hdr[8:], MaxDim)
	cr := &countingReader{r: bytes.NewReader(hdr)}
	if _, _, err := decodeFrom(cr, 0); !errors.Is(err, ErrPayload) {
		t.Fatalf("hostile huge-dim stream error = %v, want ErrPayload", err)
	}
	if cr.n > 16 {
		t.Fatalf("decoder consumed %d bytes of a header-only stream", cr.n)
	}
	// A legitimate blob still round-trips with wantDim=0.
	v := randVec(512, 41, 1)
	blob, err := Encode(v, RawF64)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeFrom(bytes.NewReader(blob), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("wantDim=0 round-trip: element %d = %g, want %g", i, got[i], v[i])
		}
	}
}
