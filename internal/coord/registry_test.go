package coord

import (
	"sync"
	"testing"
	"time"

	"flint/internal/availability"
)

func testInfo(id int64) DeviceInfo {
	return DeviceInfo{
		ID: id, Model: "Pixel-6", Platform: "Android",
		WiFi: true, BatteryHigh: true, ModernOS: true,
		SessionSec: 300, Weight: 40,
	}
}

func TestRegistryCheckInHeartbeat(t *testing.T) {
	r := NewRegistry(8, time.Minute)
	now := time.Unix(1000, 0)
	if !r.CheckIn(testInfo(1), now) {
		t.Fatal("first check-in should report new")
	}
	if r.CheckIn(testInfo(1), now.Add(time.Second)) {
		t.Fatal("second check-in should not report new")
	}
	if !r.Heartbeat(1, now.Add(2*time.Second)) {
		t.Fatal("heartbeat for known device failed")
	}
	if r.Heartbeat(99, now) {
		t.Fatal("heartbeat for unknown device succeeded")
	}
	info, ok := r.Get(1)
	if !ok || info.Model != "Pixel-6" {
		t.Fatalf("Get(1) = %+v, %v", info, ok)
	}
}

func TestRegistryEligibilityCriteria(t *testing.T) {
	r := NewRegistry(8, time.Minute)
	now := time.Unix(1000, 0)
	crit := availability.Criteria{RequireWiFi: true, RequireBatteryHigh: true, MinSessionSec: 60}

	ok := testInfo(1)
	r.CheckIn(ok, now)
	noWifi := testInfo(2)
	noWifi.WiFi = false
	r.CheckIn(noWifi, now)
	shortSession := testInfo(3)
	shortSession.SessionSec = 10
	r.CheckIn(shortSession, now)

	if !r.Eligible(1, crit, now) {
		t.Error("device 1 should be eligible")
	}
	if r.Eligible(2, crit, now) {
		t.Error("device 2 (no wifi) should be filtered")
	}
	if r.Eligible(3, crit, now) {
		t.Error("device 3 (short session) should be filtered")
	}
	if r.Eligible(99, crit, now) {
		t.Error("unknown device should not be eligible")
	}
	// Liveness: past the TTL the device no longer counts.
	if r.Eligible(1, crit, now.Add(2*time.Minute)) {
		t.Error("stale device should not be eligible")
	}
}

func TestRegistryAssignRelease(t *testing.T) {
	r := NewRegistry(4, time.Minute)
	now := time.Unix(1000, 0)
	crit := availability.Criteria{}
	r.CheckIn(testInfo(1), now)

	if !r.Assign(1, 7, crit, now) {
		t.Fatal("assign to idle device failed")
	}
	if r.Assign(1, 7, crit, now) {
		t.Fatal("double-assign to same round succeeded")
	}
	if r.Eligible(1, crit, now) {
		t.Fatal("assigned device should not be eligible")
	}
	r.Release(1)
	if !r.Assign(1, 8, crit, now) {
		t.Fatal("assign after release failed")
	}
	r.ReleaseIf(1, 8)
	if !r.Eligible(1, crit, now) {
		t.Fatal("device should be idle after round release")
	}
}

func TestRegistryConsumeAndOverwrite(t *testing.T) {
	r := NewRegistry(4, time.Minute)
	now := time.Unix(1000, 0)
	crit := availability.Criteria{}
	r.CheckIn(testInfo(1), now)

	// Each assignment is consumable exactly once.
	if !r.Assign(1, 3, crit, now) {
		t.Fatal("assign failed")
	}
	if round, ok := r.ConsumeAssignment(1); !ok || round != 3 {
		t.Fatalf("consume = (%d, %v), want (3, true)", round, ok)
	}
	if _, ok := r.ConsumeAssignment(1); ok {
		t.Fatal("second consume succeeded — duplicates would double count")
	}
	if _, ok := r.ConsumeAssignment(99); ok {
		t.Fatal("consume for unknown device succeeded")
	}

	// A stale assignment is overwritten by a newer round's, not a
	// permanent block.
	r.Assign(1, 4, crit, now)
	if r.Assign(1, 4, crit, now) {
		t.Fatal("same-round re-assign succeeded")
	}
	if !r.Assign(1, 5, crit, now) {
		t.Fatal("newer-round assign over a stale one failed")
	}
	// ReleaseIf only clears a matching round.
	r.ReleaseIf(1, 4)
	if round, ok := r.ConsumeAssignment(1); !ok || round != 5 {
		t.Fatalf("ReleaseIf(4) touched round-5 assignment: (%d, %v)", round, ok)
	}
}

func TestRegistryCensusAndSweep(t *testing.T) {
	r := NewRegistry(8, time.Minute)
	now := time.Unix(1000, 0)
	crit := availability.Criteria{RequireWiFi: true}
	for id := int64(1); id <= 10; id++ {
		info := testInfo(id)
		info.WiFi = id%2 == 0 // 5 eligible
		r.CheckIn(info, now)
	}
	r.Assign(2, 1, crit, now)

	st := r.Census(crit, now)
	if st.Known != 10 || st.Live != 10 {
		t.Fatalf("census known/live = %d/%d, want 10/10", st.Known, st.Live)
	}
	if st.Assigned != 1 || st.Eligible != 4 {
		t.Fatalf("census assigned/eligible = %d/%d, want 1/4", st.Assigned, st.Eligible)
	}

	// Sweep drops every device unseen past keep — a held assignment does
	// not protect a dead device — but a heartbeat does.
	r.Heartbeat(2, now.Add(time.Minute))
	n := r.Sweep(30*time.Second, now.Add(time.Minute))
	if n != 9 {
		t.Fatalf("sweep removed %d, want 9", n)
	}
	if _, ok := r.Get(2); !ok {
		t.Fatal("recently seen assigned device was swept")
	}
	if r.Sweep(30*time.Second, now.Add(3*time.Minute)) != 1 {
		t.Fatal("dead assigned device was not swept")
	}
}

// TestRegistryConcurrent hammers every registry operation from many
// goroutines; the race detector validates the striped locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(16, time.Minute)
	crit := availability.Criteria{RequireWiFi: true}
	base := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := int64(i % 50)
				r.CheckIn(testInfo(id), base)
				r.Heartbeat(id, base)
				if r.Assign(id, uint64(g+1), crit, base) {
					r.Release(id)
				}
				if i%100 == 0 {
					r.Census(crit, base)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Census(crit, base); st.Known != 50 {
		t.Fatalf("census known = %d, want 50", st.Known)
	}
}
