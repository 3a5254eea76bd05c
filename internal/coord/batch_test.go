package coord

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/model"
)

// TestRegistryCheckInBatch exercises both batch paths (the tiny-batch
// fallthrough and the shard-grouped walk): mixed new/existing devices,
// quota enforcement, and rejected IDs in input order.
func TestRegistryCheckInBatch(t *testing.T) {
	r := NewRegistry(8, time.Minute)
	now := time.Unix(1000, 0)

	// Tiny batch (< the grouping threshold): all new.
	small := []DeviceInfo{testInfo(1), testInfo(2), testInfo(3)}
	if n, rej := r.CheckInBatch(small, now, 0); n != 3 || len(rej) != 0 {
		t.Fatalf("small batch: new=%d rejected=%v, want 3 new", n, rej)
	}

	// Large batch across shards: half already known.
	big := make([]DeviceInfo, 0, 64)
	for id := int64(1); id <= 64; id++ {
		big = append(big, testInfo(id))
	}
	if n, rej := r.CheckInBatch(big, now.Add(time.Second), 0); n != 61 || len(rej) != 0 {
		t.Fatalf("large batch: new=%d rejected=%v, want 61 new", n, rej)
	}
	if got := r.Known(); got != 64 {
		t.Fatalf("Known() = %d, want 64", got)
	}
	// Per-device state must match per-device check-in semantics.
	info, ok := r.Get(17)
	if !ok || info.Model != "Pixel-6" || !info.WiFi {
		t.Fatalf("Get(17) after batch = %+v, %v", info, ok)
	}

	// Quota: room for exactly 2 more; the rest reject in input order.
	over := []DeviceInfo{testInfo(100), testInfo(101), testInfo(102), testInfo(103),
		testInfo(104), testInfo(105), testInfo(106), testInfo(107), testInfo(108)}
	n, rej := r.CheckInBatch(over, now.Add(2*time.Second), 66)
	if n != 2 || len(rej) != 7 {
		t.Fatalf("quota batch: new=%d rejected=%v, want 2 new / 7 rejected", n, rej)
	}
	for i := 1; i < len(rej); i++ {
		if rej[i-1] >= rej[i] {
			t.Fatalf("rejected IDs not in input order: %v", rej)
		}
	}
	// Known devices re-check-in fine even at quota.
	if n, rej := r.CheckInBatch([]DeviceInfo{testInfo(1)}, now.Add(3*time.Second), 66); n != 0 || len(rej) != 0 {
		t.Fatalf("re-check-in at quota: new=%d rejected=%v", n, rej)
	}
}

// TestRegistryAcceptRoundTrip pins the accept-set bitmask against the
// three states the negotiator distinguishes: never advertised (nil),
// advertised empty (non-nil empty — an explicit "nothing"), and a real
// capability list.
func TestRegistryAcceptRoundTrip(t *testing.T) {
	r := NewRegistry(4, time.Minute)
	now := time.Unix(1000, 0)

	null := testInfo(1) // Accept nil: legacy device, never advertised
	r.CheckIn(null, now)
	advertised := testInfo(2)
	advertised.Accept = []codec.Kind{codec.KindF32, codec.KindQ8}
	r.CheckIn(advertised, now)
	empty := testInfo(3)
	empty.Accept = []codec.Kind{}
	r.CheckIn(empty, now)

	if got, _ := r.Get(1); got.Accept != nil {
		t.Fatalf("nil accept came back %v", got.Accept)
	}
	if got, _ := r.Get(2); len(got.Accept) != 2 || got.Accept[0] != codec.KindF32 || got.Accept[1] != codec.KindQ8 {
		t.Fatalf("accept list came back %v", got.Accept)
	}
	if got, _ := r.Get(3); got.Accept == nil || len(got.Accept) != 0 {
		t.Fatalf("empty accept came back %v (nil=%v)", got.Accept, got.Accept == nil)
	}
}

// TestRegistryFootprint sanity-checks the O(1) bytes-per-device
// accounting: linear in Known() and within the order of magnitude the
// compact layout promises (well under a kilobyte per device).
func TestRegistryFootprint(t *testing.T) {
	r := NewRegistry(8, time.Minute)
	now := time.Unix(1000, 0)
	if r.FootprintBytes() != 0 {
		t.Fatalf("empty registry footprint %d", r.FootprintBytes())
	}
	for id := int64(1); id <= 1000; id++ {
		r.CheckIn(testInfo(id), now)
	}
	fp := r.FootprintBytes()
	per := fp / 1000
	if per < 64 || per > 512 {
		t.Fatalf("footprint %d B/device outside the compact layout's plausible range", per)
	}
	if fp != 1000*deviceFootprintBytes {
		t.Fatalf("footprint %d not linear in devices (per-dev constant %d)", fp, deviceFootprintBytes)
	}
}

// TestServerCheckInBatch drives POST /v1/checkin/batch end to end:
// counts, quota rejections surfaced by ID, eligibility over the accepted
// subset, and the status report's footprint section populated.
func TestServerCheckInBatch(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		MaxDevices:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	var req BatchCheckInRequest
	for id := int64(1); id <= 12; id++ {
		in := CheckInRequest{DeviceID: id, Model: "Pixel-6", Platform: "Android",
			WiFi: true, BatteryHigh: true, ModernOS: true, SessionSec: 300, Weight: 40}
		req.Devices = append(req.Devices, in)
	}
	raw, _ := json.Marshal(req)
	resp, err := srv.Client().Post(srv.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch check-in: HTTP %d", resp.StatusCode)
	}
	var out BatchCheckInResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 10 || out.New != 10 || len(out.RejectedIDs) != 2 {
		t.Fatalf("batch response %+v, want 10 accepted / 10 new / 2 rejected", out)
	}
	// Which devices lose the quota race depends on shard walk order; the
	// guarantee is the partition, not the victims.
	for _, id := range out.RejectedIDs {
		if id < 1 || id > 12 {
			t.Fatalf("rejected ID %d not from the request", id)
		}
	}
	if out.Eligible != 10 {
		t.Fatalf("eligible %d, want 10 (criteria are open)", out.Eligible)
	}

	// Empty batches are a client bug, not a no-op.
	resp2, err := srv.Client().Post(srv.URL+"/v1/checkin/batch", "application/json",
		bytes.NewReader([]byte(`{"devices":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d, want 400", resp2.StatusCode)
	}

	st := c.Status()
	// checkin_total counts attempts (like the per-device path, which
	// increments before the quota verdict); rejects land in their own
	// counter.
	if st.Counters["checkin_batch"] != 1 || st.Counters["checkin_total"] != 12 ||
		st.Counters["checkin_rejected_quota"] != 2 {
		t.Fatalf("counters: batch=%d total=%d rejected=%d", st.Counters["checkin_batch"],
			st.Counters["checkin_total"], st.Counters["checkin_rejected_quota"])
	}
	fp := st.Scheduler.Footprint
	if fp.Devices != 10 || fp.RegistryBytes <= 0 || fp.RegistryBytesPerDev <= 0 {
		t.Fatalf("status footprint not populated: %+v", fp)
	}
}

// hostileBatches returns two batch bodies just under MaxCheckInBatchBody
// that each list millions of empty devices: one the canonical scanner
// reads, one that an escape sends to encoding/json.
func hostileBatches() []struct {
	name string
	body []byte
} {
	build := func(head string) []byte {
		b := append([]byte(`{"devices":[`), head...)
		for len(b) < MaxCheckInBatchBody-8 {
			b = append(b, `{},`...)
		}
		return append(b, `{}]}`...)
	}
	return []struct {
		name string
		body []byte
	}{{"canonical", build("")}, {"non-canonical", build(`{"model":"\u0041"},`)}}
}

// allocatedBy returns the least TotalAlloc growth over three calls of f:
// other goroutines may allocate during one call, not during all three.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHostileBatchAllocBounded: a batch body of millions of devices is
// refused with 413 for the cost of reading it — at most 4× its size —
// not after decoding every device.
func TestHostileBatchAllocBounded(t *testing.T) {
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, RoundDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	for _, tc := range hostileBatches() {
		name, body := tc.name, tc.body
		code := 0
		alloc := allocatedBy(func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", bytes.NewReader(body)))
			code = rec.Code
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s hostile batch: HTTP %d, want 413", name, code)
		}
		t.Logf("%s hostile batch of %d bytes: HTTP %d, %d bytes allocated", name, len(body), code, alloc)
		if alloc > 4*uint64(len(body)) {
			t.Fatalf("%s hostile batch of %d bytes allocated %d bytes", name, len(body), alloc)
		}
	}
	if c.reg.Known() != 0 {
		t.Fatalf("a refused batch registered %d devices", c.reg.Known())
	}
}

// TestCheckInHandlerAllocs pins the registration path's allocations: a
// warm batch of 2 048 devices costs the same handful as one of 256, and a
// single check-in stays under a fixed ceiling.
func TestCheckInHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, RoundDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	serve := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", path, rec.Code, rec.Body)
		}
	}
	device := func(id int64) CheckInRequest {
		return CheckInRequest{DeviceID: id, Model: "Pixel-6", Platform: "Android", WiFi: id%2 == 0, BatteryHigh: true,
			ModernOS: true, SessionSec: 600, Weight: 12, AcceptSchemes: "f32,q8,topk,raw64"}
	}
	allocs := func(n int) float64 {
		var req BatchCheckInRequest
		for id := int64(1); id <= int64(n); id++ {
			req.Devices = append(req.Devices, device(id))
		}
		body := marshal(t, req)
		serve("/v1/checkin/batch", body) // registers the devices and warms the pools
		return testing.AllocsPerRun(20, func() { serve("/v1/checkin/batch", body) })
	}
	small, large := allocs(256), allocs(2048)
	if large-small > 8 {
		t.Fatalf("batch check-in allocations grow with the batch: %.0f at 256 devices, %.0f at 2 048", small, large)
	}
	one := marshal(t, device(1))
	// 21 when written (22 while the body's scanner escaped to the heap,
	// 28 before the capability list became a bitmask), most of them
	// httptest's request and recorder.
	if got := testing.AllocsPerRun(50, func() { serve("/v1/checkin", one) }); got > 23 {
		t.Fatalf("single check-in made %.0f allocations, ceiling 23", got)
	} else {
		t.Logf("allocations: batch of 256 %.0f, batch of 2 048 %.0f, single check-in %.0f", small, large, got)
	}
}
