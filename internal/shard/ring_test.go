package shard

import "testing"

func TestRingRejectsEmptyTier(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("want error for zero shards")
	}
}

func TestRingIsDeterministicAndStable(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 5000; id++ {
		sa := a.Shard(id)
		if sa < 0 || sa >= 4 {
			t.Fatalf("device %d mapped outside tier: %d", id, sa)
		}
		if sb := b.Shard(id); sa != sb {
			t.Fatalf("rings disagree on device %d: %d vs %d", id, sa, sb)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	const shards, devices = 4, 20000
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	var counts [shards]int
	for id := int64(1); id <= devices; id++ {
		counts[r.Shard(id)]++
	}
	// 64 vnodes/shard keeps shares within a loose band of uniform; the
	// bound here is deliberately slack (±60%) — the test is about gross
	// clumping (a shard owning ~nothing), not statistical perfection.
	for s, n := range counts {
		if n < devices/shards*40/100 || n > devices/shards*160/100 {
			t.Fatalf("shard %d owns %d of %d devices (want near %d)", s, n, devices, devices/shards)
		}
	}
}

func TestRingMinimalMovementOnGrowth(t *testing.T) {
	const devices = 10000
	r3, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id := int64(1); id <= devices; id++ {
		if r3.Shard(id) != r4.Shard(id) {
			moved++
		}
	}
	// Consistent hashing's point: growing 3→4 shards should move about
	// 1/4 of the space, not reshuffle nearly everything like mod-N.
	if moved > devices/2 {
		t.Fatalf("%d of %d devices moved on 3→4 growth (want ~%d)", moved, devices, devices/4)
	}
}
