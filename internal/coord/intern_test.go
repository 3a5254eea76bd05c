package coord

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"flint/internal/model"
)

// resetInterned empties the process-wide intern table for the test and
// again when it ends, so a test that fills it leaves no trace.
func resetInterned(t *testing.T) {
	reset := func() {
		interns.mu.Lock()
		defer interns.mu.Unlock()
		interns.read.Store(nil)
		interns.dirty, interns.misses = nil, 0
		interns.pending.Store(false)
	}
	reset()
	t.Cleanup(reset)
}

func internedLen() int {
	interns.mu.Lock()
	defer interns.mu.Unlock()
	return interns.lenLocked()
}

// shared reports whether s is the intern table's own copy of its bytes.
func shared(s string) bool {
	v, ok := interns.lookup([]byte(s))
	return ok && unsafe.StringData(v) == unsafe.StringData(s)
}

// postBatch serves one batch check-in and returns its status.
func postBatch(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", bytes.NewReader(body)))
	return rec
}

// TestInternTableBoundedUnderDistinctModels checks in 100 000 devices
// through the batch handler, each with its own model string: the table
// stops at its cap, every device keeps its own model, and the copies past
// the cap belong to their devices, so Sweep frees them.
func TestInternTableBoundedUnderDistinctModels(t *testing.T) {
	resetInterned(t)
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, RoundDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	const devices, batch = 100_000, 2048
	modelOf := func(id int64) string { return fmt.Sprintf("hostile-model-%010d", id) }
	for lo := int64(1); lo <= devices; lo += batch {
		req := BatchCheckInRequest{}
		for id := lo; id < lo+batch && id <= devices; id++ {
			req.Devices = append(req.Devices, CheckInRequest{DeviceID: id, Model: modelOf(id), Platform: "Android", AcceptSchemes: "f32,q8"})
		}
		if rec := postBatch(srv, marshal(t, req)); rec.Code != http.StatusOK {
			t.Fatalf("batch at %d: HTTP %d %s", lo, rec.Code, rec.Body)
		}
	}
	if n := internedLen(); n != internCap {
		t.Fatalf("intern table holds %d strings, want its cap %d", n, internCap)
	}
	var freed []weak.Pointer[byte]
	interned := 0
	for id := int64(1); id <= devices; id++ {
		info, ok := c.reg.Get(id)
		if !ok || info.Model != modelOf(id) || info.Platform != "Android" || len(info.Accept) != 2 {
			t.Fatalf("device %d came back as %+v (%v)", id, info, ok)
		}
		if !shared(info.Platform) {
			t.Fatalf("device %d's platform is not the table's copy", id)
		}
		if shared(info.Model) {
			interned++
		} else if id%100 == 0 {
			freed = append(freed, weak.Make(unsafe.StringData(info.Model)))
		}
	}
	// The table holds the platform, the capability list and the models.
	if interned != internCap-2 {
		t.Fatalf("%d devices hold the table's copy of their model, want %d", interned, internCap-2)
	}
	if len(freed) < (devices-internCap)/100-1 {
		t.Fatalf("only %d sampled models were stored outside the table", len(freed))
	}
	if n := c.reg.Sweep(0, time.Now().Add(time.Hour)); n != devices {
		t.Fatalf("swept %d devices, want %d", n, devices)
	}
	runtime.GC()
	for i, p := range freed {
		if p.Value() != nil {
			t.Fatalf("sampled model copy %d outlived its swept device", i)
		}
	}
}

// TestRefusedBatchInternsNothing: the strings of a batch the server
// refuses, or whose devices the quota turns away, never reach the intern
// table, so a fleet that checks in afterwards still shares its strings.
func TestRefusedBatchInternsNothing(t *testing.T) {
	resetInterned(t)
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, RoundDeadline: time.Minute, MaxDevices: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	hostile := func(lo int64, n int) BatchCheckInRequest {
		var req BatchCheckInRequest
		for id := lo; id < lo+int64(n); id++ {
			req.Devices = append(req.Devices, CheckInRequest{DeviceID: id, Model: fmt.Sprintf("refused-%d", id), Platform: fmt.Sprintf("os-%d", id), AcceptSchemes: fmt.Sprintf("f32,x%d", id)})
		}
		return req
	}
	// 1 024 distinct models, then a field encoding/json refuses too.
	body := marshal(t, hostile(1_000_000, 1024))
	body = append(body[:len(body)-2], []byte(`,{"device_id":"x"}]}`)...)
	if rec := postBatch(srv, body); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed batch: HTTP %d %s, want 400", rec.Code, rec.Body)
	}
	// A well-formed batch past the 100-device quota: every device is
	// turned away.
	fill := hostile(1, 100)
	for i := range fill.Devices {
		fill.Devices[i].Model, fill.Devices[i].Platform, fill.Devices[i].AcceptSchemes = "Pixel-6", "Android", "f32,q8"
	}
	if rec := postBatch(srv, marshal(t, fill)); rec.Code != http.StatusOK {
		t.Fatalf("fleet batch: HTTP %d %s", rec.Code, rec.Body)
	}
	if rec := postBatch(srv, marshal(t, hostile(2_000_000, 1024))); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "rejected_ids") {
		t.Fatalf("over-quota batch: HTTP %d %s", rec.Code, rec.Body)
	}
	if n := internedLen(); n != 3 {
		t.Fatalf("intern table holds %d strings, want the fleet's 3", n)
	}
	// The fleet checks in again: its strings decode to the table's copies
	// and its devices keep them.
	if rec := postBatch(srv, marshal(t, fill)); rec.Code != http.StatusOK {
		t.Fatalf("fleet re-check-in: HTTP %d %s", rec.Code, rec.Body)
	}
	for id := int64(1); id <= 100; id++ {
		info, ok := c.reg.Get(id)
		if !ok || !shared(info.Model) || !shared(info.Platform) {
			t.Fatalf("device %d: %+v (%v) does not share the table's strings", id, info, ok)
		}
	}
}

// TestFallbackBodiesShareInterned: a body the canonical parser hands to
// encoding/json (an unknown key, an escaped string) decodes to fresh
// strings, and the registry still stores the table's copies.
func TestFallbackBodiesShareInterned(t *testing.T) {
	resetInterned(t)
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, RoundDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	for _, b := range []struct{ path, body string }{
		{"/v1/checkin", `{"device_id":1,"model":"Pixel-6","platform":"Android","accept_schemes":"f32","future_field":1}`},
		{"/v1/checkin", `{"device_id":2,"model":"Pixel\u002d6","platform":"Android"}`},
		{"/v1/checkin/batch", `{"devices":[{"device_id":3,"model":"Pixel-6","platform":"Andr\u006fid"},{"device_id":4,"model":"Pixel-6","platform":"Android","future_field":true}]}`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, b.path, strings.NewReader(b.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d %s", b.path, b.body, rec.Code, rec.Body)
		}
	}
	for id := int64(1); id <= 4; id++ {
		info, ok := c.reg.Get(id)
		if !ok || info.Model != "Pixel-6" || info.Platform != "Android" || !shared(info.Model) || !shared(info.Platform) {
			t.Fatalf("device %d: %+v (%v) does not share the table's strings", id, info, ok)
		}
	}
}

// TestInternConcurrent races adds and lookups over an overlapping
// vocabulary (run it under -race): every caller gets its own bytes back,
// and callers asking for the same interned string get the same copy.
func TestInternConcurrent(t *testing.T) {
	resetInterned(t)
	const workers, words = 8, 200
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]string, words)
			for i := range words {
				j := (i*7 + w) % words
				word := fmt.Sprintf("model-%d", j)
				if v, ok := interns.lookup([]byte(word)); ok && v != word {
					t.Errorf("lookup(%q) = %q", word, v)
				}
				got[w][j] = internString(word)
			}
		}()
	}
	wg.Wait()
	if n := internedLen(); n != words {
		t.Fatalf("table holds %d strings, want %d", n, words)
	}
	for j := range words {
		want := fmt.Sprintf("model-%d", j)
		for w := range workers {
			if got[w][j] != want || unsafe.StringData(got[w][j]) != unsafe.StringData(got[0][j]) {
				t.Fatalf("worker %d got %q for %q, not the shared copy", w, got[w][j], want)
			}
		}
		if !shared(got[0][j]) {
			t.Fatalf("%q is not the table's copy", want)
		}
	}
	long := strings.Repeat("x", internMaxLen+1)
	if internString(long) != long || internedLen() != words {
		t.Fatal("a string over internMaxLen was interned")
	}
}

// TestInternPromotesAmortized: a fill of distinct strings promotes the
// lock-free map about log₂(n) times, not once per string, and a lookup
// after it takes no lock.
func TestInternPromotesAmortized(t *testing.T) {
	resetInterned(t)
	promotions, last := 0, interns.read.Load()
	for i := range 4096 {
		internString(fmt.Sprintf("m%d", i))
		if m := interns.read.Load(); m != last {
			promotions, last = promotions+1, m
		}
	}
	if promotions > 16 {
		t.Fatalf("%d promotions for 4 096 strings", promotions)
	}
	for range 5000 {
		interns.lookup([]byte("m4095"))
	}
	if interns.pending.Load() {
		t.Fatal("strings still wait outside the lock-free map after 5 000 lookups")
	}
	if (*interns.read.Load())["m4095"] != "m4095" {
		t.Fatal("m4095 missing from the promoted map")
	}
}
