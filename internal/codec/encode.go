package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"flint/internal/tensor"
)

const (
	// tileLen is the encoders' read window. It equals the q8 chunk so that
	// one tile is exactly one quantization block.
	tileLen = q8Chunk

	// maxDigit bounds the top-k select's radix: 2 048 counters, 8 KB of
	// stack that stays in L1.
	maxDigit = 11

	// guessSpan is how many binades below the first tile's largest
	// magnitude the select's first range reaches: wide enough to hold the
	// top-k threshold of any but a near-total k, narrow enough to leave
	// the first digit mantissa bits to split on.
	guessSpan = 8

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
	cur, base := s.cur[lo:hi], s.base[lo:hi]
	d := buf[:len(cur)]
	for i, c := range cur {
		d[i] = c - base[i]
	}
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
			out := payload[8*lo:]
			for i, x := range src.tile(&buf, lo) {
				binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
			}
		}
	case KindF32:
		for lo := 0; lo < dim; lo += tileLen {
			out := payload[4*lo:]
			for i, x := range src.tile(&buf, lo) {
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(x)))
			}
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
	copy(blob, Magic)
	blob[3] = Version
	blob[4] = byte(s.Kind)
	blob[5] = flags
	binary.LittleEndian.PutUint32(blob[8:], uint32(dim))
	binary.LittleEndian.PutUint32(blob[12:], crc32.ChecksumIEEE(payload))
	return blob, nil
}

// quantizeChunk writes one q8 block — out[i] = round(t[i]/scale) clamped
// to ±127 (the -128 code is reserved), NaN → 0 — and returns its scale,
// maxAbs/127, so |x - x̂| ≤ scale/2 plus float32 rounding of the scale
// itself. out must arrive zeroed: an all-zero chunk is left untouched.
func quantizeChunk(out []byte, t []float64) float32 {
	maxAbs := 0.0
	for _, x := range t {
		// NaN compares false everywhere, so it never drives the scale.
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	// Clamp instead of letting float32() overflow to +Inf: an Inf scale
	// would decode every chunk element as 0*Inf = NaN.
	scale := float32(maxAbs / 127)
	if maxAbs/127 > math.MaxFloat32 {
		scale = math.MaxFloat32
	}
	if scale == 0 {
		return 0
	}
	// Round half away from zero on the magnitude, in integers: for
	// 0 ≤ a < 127, int(a + halfPred) is exactly math.Round(a). (Adding 0.5
	// itself is not: pred(0.5) + 0.5 rounds up to 1.0.) The sign is folded
	// back in two's complement, so neither it nor the rounding branches.
	const halfPred = 0.49999999999999994 // the float64 just below 0.5
	mag127 := math.Float64bits(127)
	inv := 1 / float64(scale)
	for i, x := range t {
		yb := math.Float64bits(x * inv)
		mag := yb &^ signBit
		var q int32
		switch {
		case mag < mag127:
			q = int32(math.Float64frombits(mag) + halfPred)
		case mag <= infBits:
			q = 127 // saturate; only an Inf or clamped-scale chunk gets here
		}
		neg := int32(int64(yb) >> 63)
		out[i] = byte((q ^ neg) - neg)
	}
	return scale
}

// encodeTopK emits [k u32][k u32 ascending indices][k f32 values], keeping
// the k strongest entries. Strength is the magnitude bit pattern
// Float64bits(x) with the sign cleared — a total order on every input,
// NaN > Inf > finite, equal to |x| order on finite values — with ties to
// the smaller index. One ascending pass against the selected threshold
// yields both the index order and the tie rule.
func encodeTopK(payload []byte, src source, k int) {
	dim := len(src.cur)
	binary.LittleEndian.PutUint32(payload, uint32(k))
	idx, vals := payload[4:4+4*k], payload[4+4*k:]
	thresh, ties := uint64(0), k // k == dim keeps everything
	if k < dim {
		thresh, ties = selectThreshold(src, k)
	}
	var buf [tileLen]float64
	n := 0
	for lo := 0; lo < dim && n < k; lo += tileLen {
		for i, x := range src.tile(&buf, lo) {
			key := math.Float64bits(x) &^ signBit
			if key < thresh {
				continue
			}
			if key == thresh {
				if ties == 0 {
					continue
				}
				ties--
			}
			if n == k {
				return // exactly k entries pass; a wrong threshold must not write past idx
			}
			binary.LittleEndian.PutUint32(idx[4*n:], uint32(lo+i))
			binary.LittleEndian.PutUint32(vals[4*n:], math.Float32bits(float32(x)))
			n++
		}
	}
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
