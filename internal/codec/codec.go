// Package codec implements FLINT's versioned binary tensor wire format:
// the one payload encoding shared by model checkpoints (internal/model),
// the versioned store (internal/modelstore), and the live serving protocol
// (the /v1/task broadcast and /v1/update bodies in internal/coord).
//
// A blob is a fixed 16-byte self-describing header followed by a
// scheme-specific payload, all little-endian:
//
//	offset  size  field
//	0       3     magic "FCT" (Flint Codec Tensor)
//	3       1     format version (currently 1)
//	4       1     scheme kind
//	5       1     flags (bit 0: delta frame)
//	6       2     reserved (zero)
//	8       4     element count (uint32)
//	12      4     IEEE CRC-32 of the payload
//	16      —     payload
//
// Four encodings cover the platform's payload spectrum (the paper's §2
// network-cost constraint — cross-device FL must fit app networking
// budgets): lossless raw float64 for checkpoints, float32 for model
// broadcast, int8 per-chunk-scale quantization for uplink deltas, and
// sparse top-k for very large or very sparse updates.
//
// Any scheme can additionally be framed as a *delta*: the payload encodes
// the difference against a base vector the receiver already holds (the
// downlink mirror of the uplink's update deltas). Delta frames are marked
// by a header flag bit; EncodeDelta produces them and ApplyDelta folds one
// into the receiver's base. Decode accepts delta frames too and returns
// the raw difference vector.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"flint/internal/tensor"
)

// Format constants.
const (
	// Magic opens every blob; Version is the current format revision.
	Magic   = "FCT"
	Version = 1

	headerSize = 16

	// MaxDim bounds the element count a blob may declare, so a corrupt
	// or hostile header can't drive an enormous allocation.
	MaxDim = 1 << 24

	// q8Chunk is the quantization block: each chunk of this many
	// elements shares one float32 scale, so outliers only hurt their
	// own block, not the whole vector.
	q8Chunk = 256

	// flagDelta marks a blob whose payload encodes a difference against
	// a base vector rather than the vector itself. It lives in the
	// header's flags byte (offset 5, formerly reserved); pre-delta
	// decoders ignore that byte, which is safe because delta frames are
	// only ever sent to receivers that asked for one.
	flagDelta = 0x01
)

// Kind identifies one payload encoding.
type Kind uint8

// The wire scheme kinds. Values are the protocol; keep them stable.
const (
	KindInvalid Kind = 0
	KindRawF64  Kind = 1 // 8 bytes/elem, lossless
	KindF32     Kind = 2 // 4 bytes/elem, ~2^-24 relative error
	KindQ8      Kind = 3 // ~1 byte/elem, per-chunk scale, |err| ≤ scale/2
	KindTopK    Kind = 4 // 8 bytes/kept elem, exact-as-f32 top-k, rest zero
)

// Scheme selects an encoding plus its parameters.
type Scheme struct {
	Kind Kind
	// TopK is the kept-entry count for KindTopK: on encode 0 means
	// dim/32 (minimum 1); on decode it reports the count found in the
	// blob. Other kinds ignore it.
	TopK int
}

// The parameterless schemes, ready to pass to Encode.
var (
	RawF64 = Scheme{Kind: KindRawF64}
	F32    = Scheme{Kind: KindF32}
	Q8     = Scheme{Kind: KindQ8}
)

// TopK returns a sparse top-k scheme keeping k entries (0 = dim/32).
func TopK(k int) Scheme { return Scheme{Kind: KindTopK, TopK: k} }

// Lossless reports whether decoding recovers the exact input values.
func (s Scheme) Lossless() bool { return s.Kind == KindRawF64 }

// Validate rejects unknown kinds and negative parameters.
func (s Scheme) Validate() error {
	switch s.Kind {
	case KindRawF64, KindF32, KindQ8, KindTopK:
	default:
		return fmt.Errorf("codec: unknown scheme kind %d", s.Kind)
	}
	if s.TopK < 0 {
		return fmt.Errorf("codec: negative top-k %d", s.TopK)
	}
	return nil
}

// String renders the scheme in the form ParseScheme accepts.
func (s Scheme) String() string {
	switch s.Kind {
	case KindRawF64:
		return "raw64"
	case KindF32:
		return "f32"
	case KindQ8:
		return "q8"
	case KindTopK:
		if s.TopK > 0 {
			return "topk:" + strconv.Itoa(s.TopK)
		}
		return "topk"
	}
	return fmt.Sprintf("invalid(%d)", uint8(s.Kind))
}

// ParseScheme converts a CLI/wire string ("raw64", "f32", "q8",
// "topk[:k]") into a Scheme.
func ParseScheme(str string) (Scheme, error) {
	base, arg, hasArg := strings.Cut(str, ":")
	var s Scheme
	switch strings.ToLower(strings.TrimSpace(base)) {
	case "raw64", "raw", "f64", "float64":
		s = RawF64
	case "f32", "float32":
		s = F32
	case "q8", "int8":
		s = Q8
	case "topk", "sparse":
		s = Scheme{Kind: KindTopK}
	default:
		return Scheme{}, fmt.Errorf("codec: unknown scheme %q (want raw64, f32, q8, or topk[:k])", str)
	}
	if hasArg {
		if s.Kind != KindTopK {
			return Scheme{}, fmt.Errorf("codec: scheme %q takes no argument", base)
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k <= 0 {
			return Scheme{}, fmt.Errorf("codec: bad top-k count %q", arg)
		}
		s.TopK = k
	}
	return s, nil
}

// Decode error taxonomy: transports branch on these (a checksum failure
// is retryable corruption; a version mismatch is a deployment skew).
var (
	ErrTooShort = errors.New("codec: blob shorter than header")
	ErrMagic    = errors.New("codec: bad magic (not a tensor blob)")
	ErrVersion  = errors.New("codec: unsupported format version")
	ErrScheme   = errors.New("codec: unknown scheme in header")
	ErrDim      = errors.New("codec: element count out of range")
	ErrPayload  = errors.New("codec: payload length mismatch")
	ErrChecksum = errors.New("codec: payload checksum mismatch")
	ErrNotDelta = errors.New("codec: blob is not a delta frame")
)

// IsDelta reports whether the blob carries the delta-frame flag. It is a
// cheap peek: the blob must at least open with a valid magic for the
// answer to be meaningful, but full validation is left to Decode.
func IsDelta(blob []byte) bool {
	return len(blob) >= headerSize && string(blob[:3]) == Magic && blob[5]&flagDelta != 0
}

// ApplyDelta decodes a delta frame and folds it into base, returning
// base + diff as a fresh vector (base is not mutated) plus the scheme the
// difference was encoded with. The frame's dimension must match the base:
// a delta against a different model shape is a protocol error, not a
// resize.
func ApplyDelta(base tensor.Vector, blob []byte) (tensor.Vector, Scheme, error) {
	diff, s, err := Decode(blob)
	if err != nil {
		return nil, Scheme{}, err
	}
	if !IsDelta(blob) {
		return nil, Scheme{}, ErrNotDelta
	}
	if len(diff) != len(base) {
		return nil, Scheme{}, fmt.Errorf("%w: delta dim %d against base dim %d", ErrPayload, len(diff), len(base))
	}
	out := base.Clone()
	out.Add(diff)
	return out, s, nil
}

// Header peeks a blob's declared element count and scheme without
// checksumming or decoding the payload. Transports use it to reject
// wrong-sized tensors before paying the decode allocation.
func Header(blob []byte) (dim int, s Scheme, err error) {
	if len(blob) < headerSize {
		return 0, Scheme{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(blob))
	}
	if string(blob[:3]) != Magic {
		return 0, Scheme{}, ErrMagic
	}
	if blob[3] != Version {
		return 0, Scheme{}, fmt.Errorf("%w: %d (want %d)", ErrVersion, blob[3], Version)
	}
	s = Scheme{Kind: Kind(blob[4])}
	if err := s.Validate(); err != nil {
		return 0, Scheme{}, fmt.Errorf("%w: kind %d", ErrScheme, blob[4])
	}
	// Bound the count while still unsigned: on 32-bit platforms a direct
	// int() of a hostile uint32 would go negative, slip past the max
	// check, and panic the decode allocation.
	n := binary.LittleEndian.Uint32(blob[8:])
	if n > MaxDim {
		return 0, Scheme{}, fmt.Errorf("%w: %d elements (max %d)", ErrDim, n, MaxDim)
	}
	return int(n), s, nil
}

// Decode parses a framed blob back into a dense vector and reports the
// scheme it was encoded with. Sparse schemes reconstruct zeros for the
// dropped entries. The payload is structurally validated against the
// declared dim BEFORE the dim-sized allocation, so a header-only hostile
// blob can't buy a MaxDim-element make with 16 bytes on the wire. Top-k is
// exempt by design — a small sparse payload legitimately describes a huge
// vector — so transports decoding untrusted top-k must bound the dim via
// Header first (the coord server compares it to the model dim).
func Decode(blob []byte) (tensor.Vector, Scheme, error) {
	p, err := parsePayload(blob)
	if err != nil {
		return nil, Scheme{}, err
	}
	v, err := p.Materialize()
	return v, p.scheme, err
}

// payloadPool recycles DecodePayloadFrom's payload scratch buffers: a
// server decoding one update per device per round reuses a handful of
// buffers grown to the wire payload size instead of allocating (and
// growing) a fresh one per request the way io.ReadAll does.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// payloadChunk bounds how much readPayload allocates ahead of bytes that
// have actually arrived when the declared length is untrusted.
const payloadChunk = 1 << 20

// readPayload fills the pooled buffer at *bufp with plen payload bytes
// from r (after the already-consumed prefix) and returns the filled
// slice, leaving the grown buffer in *bufp for reuse. When the caller
// pre-validated the length against a known dimension (trusted), the
// buffer is sized up front in one step. Otherwise the length is only a
// header claim, so the buffer grows at most payloadChunk ahead of bytes
// that have actually arrived — a 16-byte hostile header can't buy a
// MaxDim-sized allocation without really sending the payload (the
// streaming mirror of Decode's length-before-alloc check).
func readPayload(r io.Reader, bufp *[]byte, plen int, prefix []byte, trusted bool) ([]byte, error) {
	payload := (*bufp)[:0]
	if trusted {
		payload = slices.Grow(payload, plen)
	}
	payload = append(payload, prefix...)
	for len(payload) < plen {
		n := min(plen-len(payload), payloadChunk)
		start := len(payload)
		payload = slices.Grow(payload, n)[:start+n]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			*bufp = payload[:0]
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: stream ended inside payload (want %d bytes)", ErrPayload, plen)
			}
			return nil, fmt.Errorf("codec: read payload: %w", err)
		}
	}
	*bufp = payload[:0]
	return payload, nil
}

// readPrefix fills p with a payload's leading length field, mapping a
// short stream to ErrPayload.
func readPrefix(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: stream ended inside payload length", ErrPayload)
		}
		return fmt.Errorf("codec: read payload: %w", err)
	}
	return nil
}
