package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"flint/internal/tensor"
)

const (
	// tileLen is the encoders' read window. It equals the q8 chunk so that
	// one tile is exactly one quantization block.
	tileLen = q8Chunk

	// onePassMin is the smallest vector encodeTopK filters before it
	// selects, and sampleLen the keys its floor is drawn from.
	onePassMin = 4096
	sampleLen  = 1024

	// maxDigit bounds the top-k select's radix: 2 048 counters, 8 KB of
	// stack that stays in L1.
	maxDigit = 11

	// guessSpan is how many binades below the first tile's largest
	// magnitude the select's first range reaches: wide enough to hold the
	// top-k threshold of any but a near-total k, narrow enough to leave
	// the first digit mantissa bits to split on.
	guessSpan = 8

	// halfPred is the float64 just below 0.5: the quantizer's rounding
	// bias (quantizeGeneric).
	halfPred = 0.49999999999999994

	signBit = 1 << 63
	// infBits is +Inf's bit pattern: magnitude keys above it are NaNs.
	infBits = 0x7FF << 52
)

// source is the vector being encoded: cur itself, or cur − base when base
// is non-nil (equal length). Kernels never see which — they read tiles.
type source struct{ cur, base tensor.Vector }

// tile returns up to tileLen elements starting at lo: a window of cur, or
// buf filled with the difference against base.
func (s source) tile(buf *[tileLen]float64, lo int) []float64 {
	hi := min(lo+tileLen, len(s.cur))
	if s.base == nil {
		return s.cur[lo:hi]
	}
	d := buf[:hi-lo]
	subTile(d, s.cur[lo:hi], s.base[lo:hi])
	return d
}

// Encode serializes v under the scheme and returns the framed blob.
func Encode(v tensor.Vector, s Scheme) ([]byte, error) {
	return encode(source{cur: v}, s, 0)
}

// EncodeDelta serializes diff — a difference against some base vector the
// receiver already holds — under the scheme and returns the blob with the
// delta flag set. The base's identity (which published version it was)
// travels out of band; the frame only records that its payload is a
// difference, so a delta blob can never be mistaken for a full vector by
// a receiver that checks IsDelta.
func EncodeDelta(diff tensor.Vector, s Scheme) ([]byte, error) {
	return encode(source{cur: diff}, s, flagDelta)
}

// EncodeDiff is EncodeDelta(cur − base, s), byte for byte, without the
// difference vector: each tile of it is computed on the stack as the
// encoder reads it.
func EncodeDiff(cur, base tensor.Vector, s Scheme) ([]byte, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("codec: diff of dim %d against base dim %d", len(cur), len(base))
	}
	return encode(source{cur: cur, base: base}, s, flagDelta)
}

// encode is the one encoder behind Encode, EncodeDelta and EncodeDiff.
// Every scheme's payload length is known before a byte is written, so the
// blob is framed in place — one allocation, the kernels write straight
// into blob[headerSize:] — and the input is read a cache-resident tile at
// a time.
func encode(src source, s Scheme, flags byte) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dim := len(src.cur)
	if dim > MaxDim {
		return nil, fmt.Errorf("%w: %d elements (max %d)", ErrDim, dim, MaxDim)
	}
	chunks := (dim + q8Chunk - 1) / q8Chunk
	k := s.TopK
	var plen int
	switch s.Kind {
	case KindRawF64:
		plen = 8 * dim
	case KindF32:
		plen = 4 * dim
	case KindQ8:
		plen = 4 + 4*chunks + dim
	case KindTopK:
		if k <= 0 {
			k = max(dim/32, 1)
		}
		k = min(k, dim)
		plen = 4 + 8*k
	}
	blob := make([]byte, headerSize+plen)
	payload := blob[headerSize:]
	var buf [tileLen]float64
	switch s.Kind {
	case KindRawF64:
		for lo := 0; lo < dim; lo += tileLen {
			putF64(payload[8*lo:], src.tile(&buf, lo))
		}
	case KindF32:
		for lo := 0; lo < dim; lo += tileLen {
			putF32(payload[4*lo:], src.tile(&buf, lo))
		}
	case KindQ8:
		binary.LittleEndian.PutUint32(payload, q8Chunk)
		scales, vals := payload[4:4+4*chunks], payload[4+4*chunks:]
		for c := 0; c < chunks; c++ {
			t := src.tile(&buf, c*q8Chunk)
			scale := quantizeChunk(vals[c*q8Chunk:][:len(t)], t)
			binary.LittleEndian.PutUint32(scales[4*c:], math.Float32bits(scale))
		}
	case KindTopK:
		encodeTopK(payload, src, k)
	}
	putHeader(blob, s.Kind, flags, dim, payload)
	return blob, nil
}

// putHeader writes the 16-byte frame header of payload into hdr.
func putHeader(hdr []byte, kind Kind, flags byte, dim int, payload []byte) {
	copy(hdr, Magic)
	hdr[3] = Version
	hdr[4] = byte(kind)
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
}

// WriteRaw64 writes Encode(v, RawF64) to w, byte for byte, without
// building the blob: the header, then the payload, which on a
// little-endian machine is the vector's own bytes — so a checkpoint lands
// in its caller's buffer in one copy.
func WriteRaw64(w io.Writer, v tensor.Vector) error {
	if len(v) > MaxDim {
		return fmt.Errorf("%w: %d elements (max %d)", ErrDim, len(v), MaxDim)
	}
	payload := f64Bytes(v)
	var hdr [headerSize]byte
	putHeader(hdr[:], KindRawF64, 0, len(v), payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// VersionBuf is one model version in one allocation: a caller's prefix
// (a checkpoint header, or nothing), then the raw64 blob of the version's
// parameters — its 16-byte header and payload. The params are writable
// until Seal (or SetBlob); after that the buffer is immutable, and
// Bytes is the prefix followed by Encode(Params, RawF64), byte for byte.
// On amd64 the params view and the payload are the same memory; elsewhere
// Seal writes the payload bytes from the params.
type VersionBuf struct {
	params tensor.Vector
	raw    []byte // prefix ‖ header ‖ payload
	prefix int
	alias  bool // params is raw's payload
}

// NewVersionBuf allocates a version buffer of dim zero params behind
// prefix, its header unwritten.
func NewVersionBuf(prefix []byte, dim int) VersionBuf { return newVersionBuf(prefix, dim) }

// Params is the version's parameter vector.
func (b VersionBuf) Params() tensor.Vector { return b.params }

// Bytes is the prefix followed by the raw64 blob.
func (b VersionBuf) Bytes() []byte { return b.raw }

// Seal writes the blob of the final params: the payload bytes where they
// are not the params' own, and the header with its checksum.
func (b VersionBuf) Seal() {
	payload := b.raw[b.prefix+headerSize:]
	if !b.alias {
		putF64Generic(payload, b.params)
	}
	putHeader(b.raw[b.prefix:], KindRawF64, 0, len(b.params), payload)
}

// SetBlob fills the buffer with a raw64 blob received whole: the bytes
// are copied verbatim behind the prefix, and the params are their
// values. Another scheme, a delta, another dim or a bad checksum is an
// error that leaves the buffer as it was.
func (b VersionBuf) SetBlob(blob []byte) error {
	p, err := parsePayload(blob)
	if err == nil && (p.scheme.Kind != KindRawF64 || p.delta || p.dim != len(b.params)) {
		err = fmt.Errorf("codec: a %s blob of %d params (delta %t), want raw64 of %d", p.scheme, p.dim, p.delta, len(b.params))
	}
	if err != nil {
		return err
	}
	copy(b.raw[b.prefix:], blob)
	if !b.alias {
		p.CopyRange(b.params, 0, p.dim)
	}
	return nil
}

// quantizeChunk writes one q8 block — out[i] = round(t[i]/scale) clamped
// to ±127 (the -128 code is reserved), NaN → 0 — and returns its scale,
// maxAbs/127, so |x - x̂| ≤ scale/2 plus float32 rounding of the scale
// itself. out must arrive zeroed: an all-zero chunk is left untouched.
func quantizeChunk(out []byte, t []float64) float32 {
	maxAbs := absMax(t)
	// Clamp instead of letting float32() overflow to +Inf: an Inf scale
	// would decode every chunk element as 0*Inf = NaN.
	scale := float32(maxAbs / 127)
	if maxAbs/127 > math.MaxFloat32 {
		scale = math.MaxFloat32
	}
	if scale == 0 {
		return 0
	}
	quantize(out, t, 1/float64(scale))
	return scale
}

// encodeTopK emits [k u32][k u32 ascending indices][k f32 values], keeping
// the k strongest entries. Strength is the magnitude bit pattern
// Float64bits(x) with the sign cleared — a total order on every input,
// NaN > Inf > finite, equal to |x| order on finite values — with ties to
// the smaller index. One ascending pass against the selected threshold
// yields both the index order and the tie rule.
//
// A large vector keeping at most a quarter of its entries is first
// filtered down to its strongest few (topkScratch.filter) and the select
// and the emit run on those; when the filter cannot vouch for its
// survivors the whole vector is selected, as a small one always is.
func encodeTopK(payload []byte, src source, k int) {
	dim := len(src.cur)
	binary.LittleEndian.PutUint32(payload, uint32(k))
	out := topkOut{idx: payload[4 : 4+4*k], vals: payload[4+4*k:], ties: k} // k == dim keeps everything
	if k < dim && dim >= onePassMin && k <= dim/4 {
		sc := topkPool.Get().(*topkScratch)
		defer topkPool.Put(sc)
		if n := sc.filter(src, k); n >= k {
			vals, idx := sc.vals[:n], sc.idx[:n]
			if n > k {
				out.thresh, out.ties = selectThreshold(source{cur: vals}, k)
			}
			for j, x := range vals {
				out.add(int(idx[j]), x)
			}
			return
		}
	}
	if k < dim {
		out.thresh, out.ties = selectThreshold(src, k)
	}
	var buf [tileLen]float64
	for lo := 0; lo < dim && out.n < k; lo += tileLen {
		for i, x := range src.tile(&buf, lo) {
			out.add(lo+i, x)
		}
	}
}

// topkOut is encodeTopK's emit: the index and value halves of the
// payload, n entries written so far, and the selected split — keys above
// thresh are kept, and the first ties entries equal to it.
type topkOut struct {
	idx, vals []byte
	thresh    uint64
	ties, n   int
}

// add writes x, the entry at index i, if the split keeps it. Entries must
// arrive in ascending index order.
func (o *topkOut) add(i int, x float64) {
	key := math.Float64bits(x) &^ signBit
	if key < o.thresh {
		return
	}
	if key == o.thresh {
		if o.ties == 0 {
			return
		}
		o.ties--
	}
	if 4*o.n == len(o.idx) {
		return // exactly k entries pass; a wrong threshold must not write past idx
	}
	binary.LittleEndian.PutUint32(o.idx[4*o.n:], uint32(i))
	binary.LittleEndian.PutUint32(o.vals[4*o.n:], math.Float32bits(float32(x)))
	o.n++
}

// topkScratch holds the one-pass select's sample and its survivors. It is
// pooled: model B's default k keeps ~12 000 survivors, 0.3 MB of them.
type topkScratch struct {
	sample [sampleLen]uint64
	vals   []float64
	idx    []uint32
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

// filter is the one-pass select's first stage. A strided sample of the
// keys sets a floor near the top 1.5·k of the vector (with 16 sample
// ranks of margin); one pass then stores every entry whose key reaches
// the floor, NaNs included, in index order in sc.vals and sc.idx. It
// returns the count. The survivors hold the k strongest entries, with
// their tie order, whenever there are at least k of them, since every
// entry left out is weaker than every survivor; fewer means the floor
// landed above the k-th key. It returns −1 when the floor is a NaN or the
// survivors outgrow their limit, about twice what the floor's rank
// promises: before the pass if the sample's keys at or above the floor
// already predict that (ties at the floor: equal or low-bit keys), else
// at the first tile that crosses it. Either way the caller falls back to
// selecting on the whole vector: one pass more at most.
func (sc *topkScratch) filter(src source, k int) int {
	dim := int64(len(src.cur))
	for i := range sc.sample {
		j := int64(i) * dim / sampleLen
		x := src.cur[j]
		if src.base != nil {
			x -= src.base[j]
		}
		sc.sample[i] = math.Float64bits(x) &^ signBit
	}
	rank := (3*int64(k)*sampleLen+2*dim-1)/(2*dim) + 16
	floor := nthKey(sc.sample[:], int(sampleLen-rank))
	if floor > infBits {
		return -1 // a NaN floor: the filter would keep only NaNs
	}
	limit := 2*k + int(64*dim/sampleLen)
	var ge int64 // sample keys at or above the floor
	for _, key := range sc.sample {
		if key >= floor {
			ge++
		}
	}
	if ge*dim/sampleLen > int64(limit) {
		return -1 // ties at the floor: the sample already predicts too many
	}
	if need := limit + tileLen + 1; len(sc.vals) < need {
		sc.vals, sc.idx = make([]float64, need), make([]uint32, need)
	}
	var buf [tileLen]float64
	n := 0
	for lo := 0; lo < len(src.cur); lo += tileLen {
		if n = filterTile(sc.vals, sc.idx, n, src.tile(&buf, lo), lo, floor); n > limit {
			return -1
		}
	}
	return n
}

// nthKey returns the n-th smallest of keys (0-based), reordering them: a
// quickselect with a median-of-three pivot and an insertion sort below 16
// keys. The value is the order statistic whatever the pivots, the sorted
// keys[n].
func nthKey(keys []uint64, n int) uint64 {
	lo, hi := 0, len(keys)-1
	for hi-lo >= 16 {
		mid := lo + (hi-lo)/2
		if keys[mid] < keys[lo] {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi] < keys[lo] {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[hi] < keys[mid] {
			keys[hi], keys[mid] = keys[mid], keys[hi]
		}
		pivot := keys[mid]
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// keys[lo..j] ≤ pivot, keys[i..hi] ≥ pivot, and any between equal it.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return pivot
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[n]
}

// selectThreshold finds the magnitude key that splits src's k strongest
// entries from the rest (0 < k < dim): exactly k entries have a key above
// thresh or are among the first ties entries whose key equals it.
//
// It is an MSD radix select over a shrinking key range. Each pass scans
// the input once: keys above the range are counted, keys inside it are
// histogrammed by one digit, and the buckets are walked from the top to
// the one the k-th strongest falls in — the next range. Each pass also
// folds the keys it histograms into an OR and an AND, so the next digit
// starts at the highest bit that still varies among them: constant
// stretches (one binade, all equal, all zero) cost no pass. The select
// stops when the bucket is kept whole or holds a single key, and once a
// bucket is small enough it is collected and ranked outright.
//
// The first range is a guess — the aligned block reaching guessSpan
// binades below the first tile's largest finite magnitude — so entries far
// from the threshold (exact zeros, stragglers, a few huge outliers) do not
// spread the first digit thin; a guess the threshold turns out not to lie
// in costs its pass and restarts from the whole key space. That bounds the
// work at ⌈63/digit⌉+1 scans whatever the distribution (typically 2: one
// histogram, one collect); the digit is sized to the input so a small
// vector pays for a small histogram.
func selectThreshold(src source, k int) (thresh uint64, ties int) {
	dim := len(src.cur)
	digit := uint(min(max(bits.Len(uint(dim)), 4), maxDigit))
	p := digitPass{mask: 1<<digit - 1}
	// descend makes the next range the keys that agree with known on every
	// bit above vary's highest, and places the digit with its top there (or
	// at the bottom of the key, where it may overlap the range's constant
	// bits). After a pass, vary is what still differs inside the range below
	// its digit, so that range is bucket b and nothing else: b's keys differ
	// only in vary's bits, its siblings differ from it in a digit bit above
	// them. The collect below relies on exactly that.
	descend := func(vary, known uint64) {
		top := uint(bits.Len64(vary))
		p.shift = max(top, digit) - digit
		p.prefixMask = ^uint64(0) << top
		p.prefix = known & p.prefixMask
	}
	var buf [tileLen]float64
	var cand [1024]uint64
	var top uint64
	for _, x := range src.tile(&buf, 0) {
		if key := math.Float64bits(x) &^ signBit; key < infBits {
			top = max(top, key) // Inf and NaN say nothing about scale
		}
	}
	descend(top^(top-min(top, guessSpan<<52)), top)
	for {
		h := p.hist[:p.mask+1]
		clear(h)
		p.or, p.and, p.above = 0, ^uint64(0), 0
		for lo := 0; lo < dim; lo += tileLen {
			p.count(src.tile(&buf, lo))
		}
		need, b := k-p.above, p.mask
		for ; need > int(h[b]) && b > 0; b-- {
			need -= int(h[b]) // all of bucket b is above the threshold
		}
		if need <= 0 || need > int(h[b]) {
			descend(^uint64(0)>>1, 0) // the guessed range missed the threshold
			continue
		}
		// The keys counted agree on every bit above this digit, so and
		// carries those bits; with b below them it is the smallest key
		// bucket b can hold.
		low := uint64(1)<<p.shift - 1
		thresh = p.and&^(p.mask<<p.shift|low) | b<<p.shift
		c := int(h[b])
		if c == need {
			return thresh, need // bucket kept whole
		}
		vary := (p.or ^ p.and) & low
		if vary == 0 {
			return thresh | p.and&low, need // bucket holds one key, need of it kept
		}
		descend(vary, thresh|p.and&low)
		if c <= len(cand) {
			keys := cand[:0]
			for lo := 0; lo < dim; lo += tileLen {
				keys = p.gather(keys, src.tile(&buf, lo))
			}
			slices.Sort(keys)
			thresh = keys[c-need]
			after, _ := slices.BinarySearch(keys, thresh+1)
			return thresh, need - (c - after) // c-after keys beat thresh
		}
	}
}

// digitPass is one scan of selectThreshold. The range is the keys with
// key&prefixMask == prefix (prefixMask covers every bit above those that
// vary in the range, so at least every bit above the digit); they are
// counted under digit key>>shift&mask and folded into or / and. Keys above
// the range are counted in above.
type digitPass struct {
	hist               [1 << maxDigit]uint32
	prefixMask, prefix uint64
	shift              uint
	mask               uint64
	or, and            uint64
	above              int
}

// count adds a tile to the pass. It is its own function, working on
// locals, so the loop's state stays in registers; the shift and mask are
// clamped to what the compiler can see is in range (no >= 64 shift
// fix-up, no bounds check on hist).
func (p *digitPass) count(t []float64) {
	prefixMask, prefix, shift, mask := p.prefixMask, p.prefix, p.shift&63, p.mask&(1<<maxDigit-1)
	or, and, above := p.or, p.and, p.above
	for _, x := range t {
		key := math.Float64bits(x) &^ signBit
		if key&prefixMask != prefix {
			if key > prefix {
				above++
			}
			continue
		}
		p.hist[key>>shift&mask]++
		or |= key
		and &= key
	}
	p.or, p.and, p.above = or, and, above
}

// gather appends the keys of t that lie in the pass's range.
func (p *digitPass) gather(keys []uint64, t []float64) []uint64 {
	for _, x := range t {
		if key := math.Float64bits(x) &^ signBit; key&p.prefixMask == p.prefix {
			keys = append(keys, key)
		}
	}
	return keys
}
