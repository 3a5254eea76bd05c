// Package shard is the horizontal coordination tier: N coordinator
// replicas each own a consistent-hash slice of the device-id space,
// fronted by a gateway that routes the /v1 device API by device id and
// hosts the tier's round leader. Commits go hierarchical — each shard
// reduces its own cohort through the fused payload kernels and ships
// the partial as a wire-form codec blob; the leader folds partials
// across shards through aggregator.Parallel's range kernels — so the
// cross-shard exchange pays codec bytes, never JSON or []float64 gobs.
// The paper's §3.4 halt-until-healthy rule runs horizontally: shard
// heartbeats feed the leader's membership view, and while any shard is
// missing the tier halts assignment (gateway 503s /v1/task, partials
// park) until membership recovers.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// replicas is the vnode count per shard. 64 vnodes keep the
// per-shard share of the id space within a few percent of uniform while
// the ring stays small enough to sit in cache (N·64 16-byte entries).
const replicas = 64

// Ring is a consistent-hash map from device ids to shard indices.
// Each shard owns `replicas` pseudo-random points (vnodes) on a
// 64-bit hash circle; a device belongs to the shard owning the first
// vnode at or clockwise of the device's own hash point. Adding or
// removing one shard therefore moves only ~1/N of the id space —
// the property that makes shard-count changes cheap for sticky device
// state (round assignment, scheduler EWMAs) compared to mod-N routing,
// where every shard-count change reshuffles almost every device.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over `shards` shards with `replicas` vnodes
// each.
func NewRing(shards int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", shards)
	}
	r := &Ring{points: make([]ringPoint, 0, shards*replicas)}
	var key [16]byte
	for s := 0; s < shards; s++ {
		binary.LittleEndian.PutUint64(key[:8], uint64(s))
		for v := 0; v < replicas; v++ {
			binary.LittleEndian.PutUint64(key[8:], uint64(v))
			r.points = append(r.points, ringPoint{hash: hash64(key[:]), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break so every gateway replica builds the
		// identical ring (64-bit collisions are absurdly unlikely, but
		// routing must not depend on sort stability if one happens).
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shard maps a device id to its owning shard index.
func (r *Ring) Shard(deviceID int64) int {
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(deviceID))
	h := hash64(key[:])
	// First vnode clockwise of the device's point, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hash64 is FNV-1a over the key bytes: fast, dependency-free, and
// uniform enough for vnode placement (the 64 vnodes per shard smooth
// any residual clumping).
func hash64(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}
