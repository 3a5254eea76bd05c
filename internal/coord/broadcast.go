package coord

import (
	"encoding/json"
	"errors"
	"sync"

	"flint/internal/codec"
	"flint/internal/tensor"
)

// broadcastState is the coordinator's immutable broadcast plane: one
// published model version, the delta-base version ring, and the cache of
// every wire artifact derived from them. The commit pipeline builds the
// next plane off to the side — a clone and a ring append, no encoding —
// and publishes it with a single atomic pointer swap; readers load the
// pointer once and see a perfectly consistent version↔payload pairing,
// with no lock shared with the commit path.
//
// The plane is the single producer of what it serves: the full blob per
// scheme, the delta frame per (base, scheme) and the legacy JSON params
// array are each encoded by the first request that asks, exactly once
// (concurrent requesters of the same artifact wait on that one encode),
// and cached until the plane is dropped. What gets encoded is therefore
// exactly what the fleet asked for — the device's own base-version header
// is the only statement of what it holds.
type broadcastState struct {
	// version is the published model version this plane serves.
	version int
	// published is the immutable parameter snapshot at version; tasks
	// share it read-only, so serving never copies.
	published tensor.Vector
	// ring retains the last Transport.RingDepth published versions
	// (ascending, newest last — including this one) as delta-broadcast
	// bases. Entries share published snapshots; all read-only.
	ring []ringEntry

	// cache holds the derived artifacts (artifactKey → *artifact). Loads
	// are lock-free for keys that exist.
	cache sync.Map
}

// ringEntry is one retained published version.
type ringEntry struct {
	version int
	params  tensor.Vector
}

// vecPool recycles full-dim work vectors for transient results (a shard's
// reduced partial), so in steady state the same one or two vectors cycle
// instead of a fresh dim-sized allocation per use. Retained snapshots (the
// published clone, ring entries) must NOT come from here — pool vectors
// are overwritten on reuse, and a retained one would tear under a
// concurrent reader.
type vecPool struct {
	dim  int
	pool sync.Pool
}

func newVecPool(dim int) *vecPool {
	p := &vecPool{dim: dim}
	p.pool.New = func() any { return make(tensor.Vector, dim) }
	return p
}

// get returns a dim-sized vector with undefined contents.
func (p *vecPool) get() tensor.Vector { return p.pool.Get().(tensor.Vector) }

// put returns a vector to the pool; the caller must not touch it after.
func (p *vecPool) put(v tensor.Vector) {
	if len(v) == p.dim {
		p.pool.Put(v)
	}
}

// artifactKind names what an artifact encodes.
type artifactKind uint8

const (
	// artifactFull is the published vector as a codec blob under scheme.
	artifactFull artifactKind = iota
	// artifactDelta is the base→version diff as a delta frame under
	// scheme.
	artifactDelta
	// artifactJSON is the published vector as a JSON number array (the
	// legacy task path's params field).
	artifactJSON
)

// artifactKey addresses one cached artifact of a plane (the version is
// implicit — the cache lives inside one broadcastState).
type artifactKey struct {
	kind   artifactKind
	base   int          // artifactDelta: the version the frame applies against
	scheme codec.Scheme // artifactFull, artifactDelta
}

// artifact is one cache entry: its once runs the encode for the first
// requester while later ones wait on it, so no artifact is encoded twice.
type artifact struct {
	once sync.Once
	data []byte
	err  error
}

// errBaseAged refuses a delta whose base has left the version ring.
var errBaseAged = errors.New("coord: delta base not in the version ring")

// newBroadcastState freezes a published snapshot into a broadcast plane.
// prev is the predecessor plane's ring (nil for the first plane); the new
// ring keeps its newest depth−1 entries and appends this version, so delta
// bases age out instead of accumulating a full model per commit forever.
// depth 0 disables delta serving.
func newBroadcastState(version int, published tensor.Vector, prev []ringEntry, depth int) *broadcastState {
	bs := &broadcastState{version: version, published: published}
	if depth > 0 {
		if extra := len(prev) + 1 - depth; extra > 0 {
			prev = prev[extra:]
		}
		ring := make([]ringEntry, 0, depth)
		bs.ring = append(append(ring, prev...), ringEntry{version: version, params: published})
	}
	return bs
}

// get returns the artifact under key, encoding it if this is the first
// request for it. cached is false for exactly the one request that paid
// the encode. A delta key whose base has left the ring is refused without
// creating an entry, so client-chosen bases cannot grow the cache past
// ring depth × scheme count.
func (bs *broadcastState) get(key artifactKey) (data []byte, cached bool, err error) {
	v, ok := bs.cache.Load(key)
	if !ok {
		if key.kind == artifactDelta {
			if _, inRing := bs.baseParams(key.base); !inRing {
				return nil, false, errBaseAged
			}
		}
		v, _ = bs.cache.LoadOrStore(key, new(artifact))
	}
	a := v.(*artifact)
	cached = true
	a.once.Do(func() {
		a.data, a.err = bs.encode(key)
		cached = false
	})
	return a.data, cached, a.err
}

// encode derives the artifact under key from the snapshot — the one place
// serving bytes are produced.
func (bs *broadcastState) encode(key artifactKey) ([]byte, error) {
	switch key.kind {
	case artifactDelta:
		base, _ := bs.baseParams(key.base) // in the ring: get admitted the key
		return codec.EncodeDiff(bs.published, base, key.scheme)
	case artifactJSON:
		return json.Marshal([]float64(bs.published))
	default:
		return codec.Encode(bs.published, key.scheme)
	}
}

// fullBlob returns the published vector encoded under s.
func (bs *broadcastState) fullBlob(s codec.Scheme) ([]byte, error) {
	blob, _, err := bs.get(artifactKey{kind: artifactFull, scheme: s})
	return blob, err
}

// paramsJSON returns the published vector as a marshaled JSON array.
func (bs *broadcastState) paramsJSON() (json.RawMessage, error) {
	raw, _, err := bs.get(artifactKey{kind: artifactJSON})
	return raw, err
}

// baseParams looks the base version up in the ring.
func (bs *broadcastState) baseParams(base int) (tensor.Vector, bool) {
	for _, e := range bs.ring {
		if e.version == base {
			return e.params, true
		}
	}
	return nil, false
}

// deltaBlob returns the delta frame base→version under s. A base equal to
// the current version is encoded under noChange instead (the caller picks
// the cheapest scheme the device can decode for an all-zero diff). cached
// reports whether another request had already paid the encode; ok is
// false when the base is no longer in the version ring (or the encode
// failed).
func (bs *broadcastState) deltaBlob(base int, s, noChange codec.Scheme) (blob []byte, cached, ok bool) {
	if base == bs.version {
		s = noChange
	}
	blob, cached, err := bs.get(artifactKey{kind: artifactDelta, base: base, scheme: s})
	return blob, cached, err == nil
}
