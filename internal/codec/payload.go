package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"flint/internal/tensor"
)

// Payload is a decoded-header, checksum-verified, structurally validated
// view of one blob's wire payload that has NOT been materialized into a
// dense vector. It is the zero-copy half of the codec: aggregation kernels
// read coordinate ranges straight out of the wire bytes (AddScaledRange),
// so the ingest→commit path never pays the per-update full-dim
// make([]float64, dim) that Decode does.
//
// A Payload produced by DecodePayloadFrom owns a pooled buffer; the holder
// must call Release exactly when done with it (Release is idempotent).
// After Release every accessor that touches payload bytes panics — a
// use-after-release is an aliasing bug the pool would otherwise convert
// into silent cross-update corruption, so it fails loudly instead.
//
// All accessors are read-only, so a Payload may be shared across the
// concurrent range kernels of one aggregation pass without locking.
type Payload struct {
	scheme Scheme // TopK carries the kept-entry count for KindTopK
	dim    int
	delta  bool
	data   []byte // payload bytes, header stripped
	// pool is the pooled-buffer handle data was read into (nil for
	// ParsePayload views, which alias the caller's blob).
	pool *[]byte
	// q8chunk is the validated chunk size for KindQ8 (0 otherwise).
	q8chunk int
}

// Dim reports the element count of the encoded vector.
func (p *Payload) Dim() int { return p.dim }

// WireLen reports the payload size in bytes (header excluded).
func (p *Payload) WireLen() int { return len(p.data) }

// Release returns the pooled buffer to the codec pool and poisons the
// view. Idempotent; safe on a nil or non-pooled Payload. The holder must
// guarantee no accessor runs concurrently with or after Release.
func (p *Payload) Release() {
	if p == nil {
		return
	}
	if h := p.pool; h != nil {
		p.pool = nil
		*h = p.data[:0]
		payloadPool.Put(h)
	}
	p.data = nil
}

// Materialize decodes the payload into a fresh dense vector — the
// fallback for consumers that need random dense access (robust reducers,
// norm clipping). Fused consumers use AddScaledRange instead. A Payload
// only exists validated, so the error is always nil; the result stays in
// the signature for the callers that check it.
func (p *Payload) Materialize() (tensor.Vector, error) {
	v := tensor.NewVector(p.dim)
	p.CopyRange(v, 0, p.dim)
	return v, nil
}

// AllFinite reports whether every decoded element is finite, scanning the
// wire bytes without materializing. For q8 only the per-chunk float32
// scales can carry non-finite bit patterns (values are int8, and
// finite-scale × int8 cannot overflow float64), so the scan is O(dim/256);
// for topk it is O(k).
func (p *Payload) AllFinite() bool {
	d := p.data
	switch p.scheme.Kind {
	case KindRawF64:
		for i := 0; i < p.dim; i++ {
			if isNonFinite64(binary.LittleEndian.Uint64(d[8*i:])) {
				return false
			}
		}
	case KindF32:
		for i := 0; i < p.dim; i++ {
			if isNonFinite32(binary.LittleEndian.Uint32(d[4*i:])) {
				return false
			}
		}
	case KindQ8:
		for c := 0; c < p.q8chunks(); c++ {
			if isNonFinite32(binary.LittleEndian.Uint32(d[4+4*c:])) {
				return false
			}
		}
	case KindTopK:
		k := p.scheme.TopK
		for i := 0; i < k; i++ {
			if isNonFinite32(binary.LittleEndian.Uint32(d[4+4*k+4*i:])) {
				return false
			}
		}
	}
	return true
}

// Norm2 returns the L2 norm of the decoded vector, scanning the wire
// bytes without materializing — the pre-reduce norm screen's accessor.
// Every scheme accumulates s += v*v over ascending coordinates with v
// computed by the exact CopyRange expression, so the result is
// bit-identical to Materialize().Norm2(); top-k skips absent entries,
// whose dense contribution (s += 0*0) is the identity.
func (p *Payload) Norm2() float64 {
	d := p.data
	var s float64
	switch p.scheme.Kind {
	case KindRawF64:
		for i := 0; i < p.dim; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(d[8*i:]))
			s += v * v
		}
	case KindF32:
		for i := 0; i < p.dim; i++ {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(d[4*i:])))
			s += v * v
		}
	case KindQ8:
		scales, vals := p.q8Sections()
		for c, j := 0, 0; j < p.dim; c++ {
			end := min(j+p.q8chunk, p.dim)
			scale := q8Scale(scales, c)
			for _, b := range vals[j:end] {
				v := q8Value[b] * scale
				s += v * v
			}
			j = end
		}
	case KindTopK:
		k := p.scheme.TopK
		for i := 0; i < k; i++ {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(d[4+4*k+4*i:])))
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Norm2Group sets norms[m] = ps[m].Norm2() for every member. Each run of
// groupWidth consecutive q8 payloads with one dimension and one chunk size
// is walked once, with one accumulator per member: each member's sum still
// adds its own squares in ascending order, so every norm is bit-identical
// to Norm2's, and the four independent chains hide the add latency that
// bounds a single one. Other members take Norm2 alone.
func Norm2Group(norms []float64, ps []*Payload) {
	norms = norms[:len(ps)]
	for len(ps) > 0 {
		if len(ps) >= groupWidth && ps[0].scheme.Kind == KindQ8 && sameLayout(ps[:groupWidth]) {
			norm2Q8Group(norms[:groupWidth], ps[:groupWidth])
			norms, ps = norms[groupWidth:], ps[groupWidth:]
			continue
		}
		norms[0] = ps[0].Norm2()
		norms, ps = norms[1:], ps[1:]
	}
}

// norm2Q8Group is Norm2 of a group of groupWidth q8 payloads sharing a
// dimension and a chunk size, each element decoded as q8Value[b] * scale.
func norm2Q8Group(norms []float64, ps []*Payload) {
	dim, chunk := ps[0].dim, ps[0].q8chunk
	var scales, vals [groupWidth][]byte
	for m, p := range ps {
		scales[m], vals[m] = p.q8Sections()
	}
	var s0, s1, s2, s3 float64
	for c, j := 0, 0; j < dim; c++ {
		end := min(j+chunk, dim)
		// Re-slicing every source to the first's span lets the compiler
		// drop the per-element bounds checks.
		v0 := vals[0][j:end]
		v1, v2, v3 := vals[1][j:end][:len(v0)], vals[2][j:end][:len(v0)], vals[3][j:end][:len(v0)]
		c0, c1, c2, c3 := q8Scale(scales[0], c), q8Scale(scales[1], c), q8Scale(scales[2], c), q8Scale(scales[3], c)
		for i, b := range v0 {
			x0 := q8Value[b] * c0
			x1 := q8Value[v1[i]] * c1
			x2 := q8Value[v2[i]] * c2
			x3 := q8Value[v3[i]] * c3
			s0 += x0 * x0
			s1 += x1 * x1
			s2 += x2 * x2
			s3 += x3 * x3
		}
		j = end
	}
	norms[0], norms[1], norms[2], norms[3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
}

// CopyRange decodes elements [lo, hi) into dst (len hi-lo), overwriting
// it — the codec's one element decoder per scheme: Decode and
// Materialize are CopyRange over [0, dim), the robust reducers copy
// per-worker windows, and the fused kernels repeat its element
// expressions.
func (p *Payload) CopyRange(dst tensor.Vector, lo, hi int) {
	if lo < 0 || hi > p.dim || lo > hi {
		panic(fmt.Sprintf("codec: payload range [%d,%d) outside dim %d", lo, hi, p.dim))
	}
	if len(dst) != hi-lo {
		panic(fmt.Sprintf("codec: payload range [%d,%d) into %d-elem dst", lo, hi, len(dst)))
	}
	d := p.data
	switch p.scheme.Kind {
	case KindRawF64:
		b := d[8*lo : 8*hi]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case KindF32:
		b := d[4*lo : 4*hi]
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
	case KindQ8:
		chunk := p.q8chunk
		scales, vals := p.q8Sections()
		for c, j := lo/chunk, lo; j < hi; c++ {
			end := min((c+1)*chunk, hi)
			scale := q8Scale(scales, c)
			decodeQ8(dst[j-lo:end-lo], vals[j:end], scale)
			j = end
		}
	case KindTopK:
		dst.Zero()
		k := p.scheme.TopK
		idx := d[4 : 4+4*k]
		valOff := 4 + 4*k
		i := sort.Search(k, func(n int) bool {
			return int(binary.LittleEndian.Uint32(idx[4*n:])) >= lo
		})
		for ; i < k; i++ {
			j := int(binary.LittleEndian.Uint32(idx[4*i:]))
			if j >= hi {
				break
			}
			dst[j-lo] = float64(math.Float32frombits(binary.LittleEndian.Uint32(d[valOff+4*i:])))
		}
	}
}

// isNonFinite64 reports an all-ones exponent (Inf or NaN) without leaving
// integer registers.
func isNonFinite64(bits uint64) bool { return bits&0x7FF0000000000000 == 0x7FF0000000000000 }

func isNonFinite32(bits uint32) bool { return bits&0x7F800000 == 0x7F800000 }

func (p *Payload) q8chunks() int {
	if p.dim == 0 {
		return 0
	}
	return (p.dim + p.q8chunk - 1) / p.q8chunk
}

// q8Value is the q8 element decode: q8Value[b] == float64(int8(b)) for every
// byte, exactly, so a table load replaces the int→float conversion and
// every q8 accessor decodes an element as q8Value[b] * scale.
var q8Value = func() (t [256]float64) {
	for b := range t {
		t[b] = float64(int8(b))
	}
	return t
}()

// q8Sections splits a q8 payload into its per-chunk scale words and its
// value bytes.
func (p *Payload) q8Sections() (scales, vals []byte) {
	off := 4 + 4*p.q8chunks()
	return p.data[4:off], p.data[off:]
}

// q8Scale decodes chunk c's scale word.
func q8Scale(scales []byte, c int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(scales[4*c:])))
}

// At returns element i decoded on the fly (tests, spot checks; kernels
// stream ranges instead).
func (p *Payload) At(i int) float64 {
	if i < 0 || i >= p.dim {
		panic(fmt.Sprintf("codec: payload index %d out of range [0,%d)", i, p.dim))
	}
	d := p.data
	switch p.scheme.Kind {
	case KindRawF64:
		return math.Float64frombits(binary.LittleEndian.Uint64(d[8*i:]))
	case KindF32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(d[4*i:])))
	case KindQ8:
		scales, vals := p.q8Sections()
		return q8Value[vals[i]] * q8Scale(scales, i/p.q8chunk)
	case KindTopK:
		k := p.scheme.TopK
		j := sort.Search(k, func(n int) bool {
			return int(binary.LittleEndian.Uint32(d[4+4*n:])) >= i
		})
		if j < k && int(binary.LittleEndian.Uint32(d[4+4*j:])) == i {
			return float64(math.Float32frombits(binary.LittleEndian.Uint32(d[4+4*k+4*j:])))
		}
		return 0
	}
	return 0
}

// AddScaledRange folds dst[j-lo] += alpha * decoded[j] for j in [lo, hi)
// — the fused decode→weight→reduce kernel: AddScaledGroup of this one
// payload. dst must be the caller's global[lo:hi] window (len hi-lo).
func (p *Payload) AddScaledRange(dst tensor.Vector, alpha float64, lo, hi int) {
	AddScaledGroup(dst, []*Payload{p}, []float64{alpha}, lo, hi)
}

// groupWidth is how many payloads one group pass folds into a loaded
// coordinate. An 8-wide pass measured slightly slower than 4 (16 and 32
// q8 updates, one core): every member keeps an alpha, a scale and a
// source pointer live across the loop, so past 4 the width buys register
// pressure, not less accumulator traffic worth having.
const groupWidth = 4

// AddScaledGroup folds every payload of ps into dst in slice order:
// dst[j-lo] += alphas[u] * decoded_u[j] for j in [lo, hi), where dst is
// the caller's global[lo:hi] window (len hi-lo). Every decoded value is
// computed with the exact expression CopyRange uses and applied with the
// exact expression tensor.AddScaled uses (dst += alpha*v), so the fold is
// bit-identical to materializing each payload and calling AddScaled once
// per payload in order — except that top-k skips absent entries instead
// of adding alpha*0, which is value-identical (it can only flip a -0 to
// +0).
//
// Each run of groupWidth consecutive payloads with one layout (all raw64,
// or all q8 with one chunk size) takes a group pass: a coordinate is
// loaded once, the run's terms are added to it in slice order, and it is
// stored once. Per coordinate that is the floating-point sequence of the
// single passes, so grouping changes memory traffic, never a bit. f32,
// top-k, runs that break the layout and the tail fold one payload per
// pass.
func AddScaledGroup(dst tensor.Vector, ps []*Payload, alphas []float64, lo, hi int) {
	if len(alphas) != len(ps) {
		panic(fmt.Sprintf("codec: %d payloads with %d weights", len(ps), len(alphas)))
	}
	for _, p := range ps {
		if lo < 0 || hi > p.dim || lo > hi {
			panic(fmt.Sprintf("codec: payload range [%d,%d) outside dim %d", lo, hi, p.dim))
		}
	}
	if len(dst) != hi-lo {
		panic(fmt.Sprintf("codec: payload range [%d,%d) into %d-elem dst", lo, hi, len(dst)))
	}
	for len(ps) > 0 {
		p, alpha, n := ps[0], alphas[0], 1
		if len(ps) >= groupWidth && sameLayout(ps[:groupWidth]) {
			n = groupWidth
		}
		switch p.scheme.Kind {
		case KindRawF64:
			addRaw64(dst, ps[:n], alphas[:n], lo, hi)
		case KindF32:
			b := p.data[4*lo : 4*hi]
			for i := range dst {
				v := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
				dst[i] += alpha * v
			}
		case KindQ8:
			addQ8(dst, ps[:n], alphas[:n], lo, hi)
		case KindTopK:
			d := p.data
			k := p.scheme.TopK
			idx := d[4 : 4+4*k]
			valOff := 4 + 4*k
			// Indices are validated strictly ascending, so the shard's
			// slice of the sparse entries is one binary search plus a
			// linear walk.
			i := sort.Search(k, func(n int) bool {
				return int(binary.LittleEndian.Uint32(idx[4*n:])) >= lo
			})
			for ; i < k; i++ {
				j := int(binary.LittleEndian.Uint32(idx[4*i:]))
				if j >= hi {
					break
				}
				v := float64(math.Float32frombits(binary.LittleEndian.Uint32(d[valOff+4*i:])))
				dst[j-lo] += alpha * v
			}
		}
		ps, alphas = ps[n:], alphas[n:]
	}
}

// sameLayout reports whether a run can share one group pass: all raw64,
// or all q8 with one chunk size, and one dimension, so one walk serves
// every member.
func sameLayout(ps []*Payload) bool {
	k, chunk, dim := ps[0].scheme.Kind, ps[0].q8chunk, ps[0].dim
	if k != KindRawF64 && k != KindQ8 {
		return false
	}
	for _, p := range ps[1:] {
		if p.scheme.Kind != k || p.q8chunk != chunk || p.dim != dim {
			return false
		}
	}
	return true
}

// addRaw64 folds one raw64 payload, or a group of groupWidth.
func addRaw64(dst tensor.Vector, ps []*Payload, alphas []float64, lo, hi int) {
	b0 := ps[0].data[8*lo : 8*hi]
	if len(ps) == 1 {
		a0 := alphas[0]
		for i := range dst {
			dst[i] += a0 * math.Float64frombits(binary.LittleEndian.Uint64(b0[8*i:]))
		}
		return
	}
	b1 := ps[1].data[8*lo:][:len(b0)]
	b2 := ps[2].data[8*lo:][:len(b0)]
	b3 := ps[3].data[8*lo:][:len(b0)]
	a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
	for i := range dst {
		x := dst[i]
		x += a0 * math.Float64frombits(binary.LittleEndian.Uint64(b0[8*i:]))
		x += a1 * math.Float64frombits(binary.LittleEndian.Uint64(b1[8*i:]))
		x += a2 * math.Float64frombits(binary.LittleEndian.Uint64(b2[8*i:]))
		x += a3 * math.Float64frombits(binary.LittleEndian.Uint64(b3[8*i:]))
		dst[i] = x
	}
}

// addQ8 folds one q8 payload, or a group of groupWidth sharing a chunk
// size, in one walk over the chunks: per chunk each member contributes
// its scale and its value bytes, decoded as q8Value[b] * scale.
func addQ8(dst tensor.Vector, ps []*Payload, alphas []float64, lo, hi int) {
	chunk := ps[0].q8chunk
	var scales, vals [groupWidth][]byte
	for m, p := range ps {
		scales[m], vals[m] = p.q8Sections()
	}
	for c, j := lo/chunk, lo; j < hi; c++ {
		end := min((c+1)*chunk, hi)
		// Re-slicing every source to the output span lets the compiler
		// drop the per-element bounds checks.
		out := dst[j-lo : end-lo]
		v0, s0, a0 := vals[0][j:end][:len(out)], q8Scale(scales[0], c), alphas[0]
		if len(ps) == 1 {
			for i, b := range v0 {
				out[i] += a0 * (q8Value[b] * s0)
			}
			j = end
			continue
		}
		v1, s1, a1 := vals[1][j:end][:len(out)], q8Scale(scales[1], c), alphas[1]
		v2, s2, a2 := vals[2][j:end][:len(out)], q8Scale(scales[2], c), alphas[2]
		v3, s3, a3 := vals[3][j:end][:len(out)], q8Scale(scales[3], c), alphas[3]
		for i := range out {
			x := out[i]
			x += a0 * (q8Value[v0[i]] * s0)
			x += a1 * (q8Value[v1[i]] * s1)
			x += a2 * (q8Value[v2[i]] * s2)
			x += a3 * (q8Value[v3[i]] * s3)
			out[i] = x
		}
		j = end
	}
}

// validatePayload is the codec's structural validation, run before any
// element is decoded or allocated for: exact length accounting for every
// scheme, chunk-size sanity for q8, and the strict ascending in-range
// index walk for top-k (which AddScaledRange's binary search relies on).
// It returns the scheme with TopK filled in and the q8 chunk size.
func validatePayload(payload []byte, dim int, s Scheme) (Scheme, int, error) {
	q8chunk := 0
	switch s.Kind {
	case KindRawF64:
		if len(payload) != 8*dim {
			return s, 0, fmt.Errorf("%w: raw64 payload %d bytes for dim %d", ErrPayload, len(payload), dim)
		}
	case KindF32:
		if len(payload) != 4*dim {
			return s, 0, fmt.Errorf("%w: f32 payload %d bytes for dim %d", ErrPayload, len(payload), dim)
		}
	case KindQ8:
		if len(payload) < 4 {
			return s, 0, fmt.Errorf("%w: q8 payload missing chunk size", ErrPayload)
		}
		chunk := int(binary.LittleEndian.Uint32(payload))
		if chunk <= 0 || chunk > MaxDim {
			return s, 0, fmt.Errorf("%w: q8 chunk size %d", ErrPayload, chunk)
		}
		chunks := 0
		if dim > 0 {
			chunks = (dim + chunk - 1) / chunk
		}
		if len(payload) != 4+4*chunks+dim {
			return s, 0, fmt.Errorf("%w: q8 payload %d bytes for dim %d chunk %d", ErrPayload, len(payload), dim, chunk)
		}
		q8chunk = chunk
	case KindTopK:
		if len(payload) < 4 {
			return s, 0, fmt.Errorf("%w: topk payload missing count", ErrPayload)
		}
		k := int(binary.LittleEndian.Uint32(payload))
		if k > dim {
			return s, 0, fmt.Errorf("%w: topk count %d exceeds dim %d", ErrPayload, k, dim)
		}
		if len(payload) != 4+8*k {
			return s, 0, fmt.Errorf("%w: topk payload %d bytes for k %d", ErrPayload, len(payload), k)
		}
		prev := -1
		for i := 0; i < k; i++ {
			j := int(binary.LittleEndian.Uint32(payload[4+4*i:]))
			if j >= dim || j <= prev {
				return s, 0, fmt.Errorf("%w: topk index %d (dim %d, prev %d)", ErrPayload, j, dim, prev)
			}
			prev = j
		}
		s.TopK = k
	}
	return s, q8chunk, nil
}

// ParsePayload builds a zero-copy Payload view over an in-memory blob
// (header + payload): header and checksum verified, structure validated.
// The view aliases blob — the caller must keep it immutable for the
// Payload's lifetime. Release is a no-op pool-wise (nothing pooled) but
// still poisons the view.
func ParsePayload(blob []byte) (*Payload, error) {
	p, err := parsePayload(blob)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// parsePayload is ParsePayload by value, so Decode's transient view stays
// on the stack.
func parsePayload(blob []byte) (Payload, error) {
	dim, s, err := Header(blob)
	if err != nil {
		return Payload{}, err
	}
	payload := blob[headerSize:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(blob[12:]) {
		return Payload{}, ErrChecksum
	}
	s, q8chunk, err := validatePayload(payload, dim, s)
	if err != nil {
		return Payload{}, err
	}
	return Payload{
		scheme:  s,
		dim:     dim,
		delta:   blob[5]&flagDelta != 0,
		data:    payload,
		q8chunk: q8chunk,
	}, nil
}

// DecodePayloadFrom reads exactly one framed blob from r, streaming: the
// 16-byte header is read and validated first, the scheme-specific payload
// length is derived from it, and only then is the payload read — into a
// pooled scratch buffer of exactly that size — and CRC checked. It stops
// short of materializing: it returns a structurally validated Payload that
// retains the pooled read buffer. The caller owns the Payload and must
// Release it; until then the wire bytes are readable zero-copy via
// AddScaledRange/At/AllFinite, or decoded with Materialize. A wantDim > 0
// requires the header's element count to equal it, rejecting wrong-sized
// tensors before any payload byte is read or allocated (0 accepts any
// in-range count). Bytes after the frame are left unread in r. Read errors
// from r (e.g. an http.MaxBytesError from a bounded body) are wrapped with
// %w so transports can branch on them.
func DecodePayloadFrom(r io.Reader, wantDim int) (*Payload, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream ended inside header", ErrTooShort)
		}
		return nil, fmt.Errorf("codec: read header: %w", err)
	}
	dim, s, err := Header(hdr[:])
	if err != nil {
		return nil, err
	}
	if wantDim > 0 && dim != wantDim {
		return nil, fmt.Errorf("%w: blob declares %d elements, want %d", ErrDim, dim, wantDim)
	}
	// Derive the exact payload length; q8/top-k carry it in their own
	// leading u32, read ahead and re-joined by readPayload.
	var prefix [4]byte
	prefixLen := 0
	plen := 0
	switch s.Kind {
	case KindRawF64:
		plen = 8 * dim
	case KindF32:
		plen = 4 * dim
	case KindQ8:
		if err := readPrefix(r, prefix[:]); err != nil {
			return nil, err
		}
		prefixLen = 4
		chunk := binary.LittleEndian.Uint32(prefix[:])
		if chunk == 0 || chunk > MaxDim {
			return nil, fmt.Errorf("%w: q8 chunk size %d", ErrPayload, chunk)
		}
		chunks := 0
		if dim > 0 {
			chunks = (dim + int(chunk) - 1) / int(chunk)
		}
		plen = 4 + 4*chunks + dim
	case KindTopK:
		if err := readPrefix(r, prefix[:]); err != nil {
			return nil, err
		}
		prefixLen = 4
		k := binary.LittleEndian.Uint32(prefix[:])
		if int64(k) > int64(dim) {
			return nil, fmt.Errorf("%w: topk count %d exceeds dim %d", ErrPayload, k, dim)
		}
		plen = 4 + 8*int(k)
	}
	bufp := payloadPool.Get().(*[]byte)
	payload, err := readPayload(r, bufp, plen, prefix[:prefixLen], wantDim > 0)
	if err != nil {
		payloadPool.Put(bufp)
		return nil, err
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[12:]) {
		payloadPool.Put(bufp)
		return nil, ErrChecksum
	}
	s, q8chunk, err := validatePayload(payload, dim, s)
	if err != nil {
		payloadPool.Put(bufp)
		return nil, err
	}
	return &Payload{
		scheme:  s,
		dim:     dim,
		delta:   hdr[5]&flagDelta != 0,
		data:    payload,
		pool:    bufp,
		q8chunk: q8chunk,
	}, nil
}
