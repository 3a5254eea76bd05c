package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/model"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// TestPublishedBlobCache checks the per-commit broadcast cache: the blob a
// task carries decodes to the published parameters, is shared byte-for-byte
// between requests at the same version, and is re-encoded after a commit.
func TestPublishedBlobCache(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 1,
		Quorum:        1,
		OverCommit:    4,
		RoundDeadline: time.Minute,
		// lossless so decode == published exactly
		Transport: transport.Config{Default: transport.Policy{Task: codec.RawF64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := func(id int64) DeviceInfo {
		return DeviceInfo{ID: id, Model: "Pixel-6", WiFi: true, BatteryHigh: true, SessionSec: 120, Weight: 1}
	}
	c.CheckIn(info(1))
	c.CheckIn(info(2))
	t1, err := c.RequestTask(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.RequestTask(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.EncodedParams) == 0 || &t1.EncodedParams[0] != &t2.EncodedParams[0] {
		t.Fatal("same-version tasks do not share the cached blob")
	}
	decoded, scheme, err := codec.Decode(t1.EncodedParams)
	if err != nil {
		t.Fatal(err)
	}
	if scheme != codec.RawF64 || len(decoded) != t1.Dim {
		t.Fatalf("blob scheme %v dim %d", scheme, len(decoded))
	}
	diff := decoded.Clone()
	diff.Sub(t1.Params)
	if diff.Norm2() != 0 {
		t.Fatal("cached blob does not match published params")
	}

	// Commit a round and confirm the cache was re-encoded.
	delta := tensor.NewVector(t1.Dim)
	delta.Fill(0.5)
	if err := c.SubmitUpdate(Submission{DeviceID: 1, RoundID: t1.RoundID, BaseVersion: t1.BaseVersion, Weight: 1, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("round never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t3, err := c.RequestTask(2)
	if err != nil {
		t.Fatal(err)
	}
	if t3.BaseVersion != 2 {
		t.Fatalf("base version %d, want 2", t3.BaseVersion)
	}
	decoded2, _, err := codec.Decode(t3.EncodedParams)
	if err != nil {
		t.Fatal(err)
	}
	moved := decoded2.Clone()
	moved.Sub(decoded)
	if moved.Norm2() == 0 {
		t.Fatal("blob unchanged after commit")
	}
}

// TestServerProtocolEdges exercises the wire-level error contract directly.
func TestServerProtocolEdges(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		Quorum:        2,
		RoundDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := srv.Client()

	// Task for a device that never checked in → 404.
	resp, err := client.Get(srv.URL + "/v1/task?device=42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("task for unknown device: HTTP %d, want 404", resp.StatusCode)
	}

	// Malformed check-in → 400.
	resp, err = client.Post(srv.URL+"/v1/checkin", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed check-in: HTTP %d, want 400", resp.StatusCode)
	}

	// Valid check-in → eligible with version/round info.
	body, _ := json.Marshal(CheckInRequest{DeviceID: 42, Model: "Pixel-6", WiFi: true, BatteryHigh: true, SessionSec: 120})
	resp, err = client.Post(srv.URL+"/v1/checkin", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var ci CheckInResponse
	if err := json.NewDecoder(resp.Body).Decode(&ci); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ci.Eligible || ci.Version != 1 || ci.RoundID != 1 {
		t.Fatalf("check-in response = %+v", ci)
	}

	// Update with wrong dimensionality → 400.
	body, _ = json.Marshal(UpdateRequest{DeviceID: 42, RoundID: 1, BaseVersion: 1, Weight: 1, Delta: []float64{1, 2, 3}})
	resp, err = client.Post(srv.URL+"/v1/update", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dim update: HTTP %d, want 400", resp.StatusCode)
	}

	// Wrong HTTP method → 405.
	resp, err = client.Get(srv.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/update: HTTP %d, want 405", resp.StatusCode)
	}

	// Status reflects the census.
	resp, err = client.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Devices.Known != 1 || st.Round.ID != 1 || st.Mode != ModeSync {
		t.Fatalf("status = %+v", st)
	}
}

// TestBinaryProtocolEdges exercises the tensor-body wire contract: header
// metadata, blob validation, and the dimension precheck.
func TestBinaryProtocolEdges(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		Quorum:        2,
		RoundDeadline: time.Minute,
		Transport: transport.Config{
			Default: transport.Policy{Task: codec.F32, Update: codec.Q8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := srv.Client()

	body, _ := json.Marshal(CheckInRequest{DeviceID: 7, Model: "Pixel-6", WiFi: true, BatteryHigh: true, SessionSec: 120, Weight: 2})
	resp, err := client.Post(srv.URL+"/v1/checkin", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Accept negotiation: binary task with metadata headers and a codec
	// blob body that decodes to the model dimension.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/task?device=7", nil)
	req.Header.Set("Accept", transport.ContentTypeTensor)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary task: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != transport.ContentTypeTensor {
		t.Fatalf("content type %q", ct)
	}
	if got := resp.Header.Get(transport.HeaderUpdateScheme); got != "q8" {
		t.Fatalf("update scheme header %q", got)
	}
	params, scheme, err := codec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	dim, _ := strconv.Atoi(resp.Header.Get(transport.HeaderDim))
	if scheme != codec.F32 || len(params) != dim || dim == 0 {
		t.Fatalf("blob: scheme %v, %d params, dim header %d", scheme, len(params), dim)
	}

	post := func(body []byte, round, base string) int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/update", bytes.NewReader(body))
		req.Header.Set("Content-Type", transport.ContentTypeTensor)
		req.Header.Set(transport.HeaderDevice, "7")
		req.Header.Set(transport.HeaderRound, round)
		req.Header.Set(transport.HeaderBaseVersion, base)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// Garbage tensor body → 400.
	if code := post([]byte("not a tensor"), "1", "1"); code != http.StatusBadRequest {
		t.Fatalf("garbage blob: HTTP %d, want 400", code)
	}
	// Wrong-dimension blob → 400 (rejected from the header precheck).
	small, err := codec.Encode(tensor.NewVector(3), codec.F32)
	if err != nil {
		t.Fatal(err)
	}
	if code := post(small, "1", "1"); code != http.StatusBadRequest {
		t.Fatalf("wrong-dim blob: HTTP %d, want 400", code)
	}
	// Bad metadata header → 400.
	if code := post(blob, "not-a-number", "1"); code != http.StatusBadRequest {
		t.Fatalf("bad round header: HTTP %d, want 400", code)
	}
	// A well-formed quantized delta → 202.
	delta := tensor.NewVector(dim)
	delta.Fill(0.001)
	enc, err := codec.Encode(delta, codec.Q8)
	if err != nil {
		t.Fatal(err)
	}
	if code := post(enc, "1", "1"); code != http.StatusAccepted {
		t.Fatalf("valid binary update: HTTP %d, want 202", code)
	}
}

// TestTransportNegotiationEdges exercises the satellite contracts of the
// negotiated transport layer: a device advertising only unknown schemes
// falls back to f32 (with counter bumps), capability lists constrain the
// cohort policy, and cellular devices land in the low-bandwidth cohort.
func TestTransportNegotiationEdges(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		Quorum:        2,
		OverCommit:    8,
		RoundDeadline: time.Minute,
		// Non-f32 defaults so a forced f32 fallback is observable.
		Transport: transport.Config{
			Default: transport.Policy{Task: codec.Q8, Update: codec.Q8, Delta: codec.Q8},
		},
		Criteria: availability.Criteria{}, // admit cellular sessions too
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := srv.Client()

	checkin := func(body CheckInRequest) CheckInResponse {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := client.Post(srv.URL+"/v1/checkin", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res CheckInResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// A device advertising schemes this server has never heard of is
	// served the universal baseline, and both counters tick.
	res := checkin(CheckInRequest{DeviceID: 1, Model: "Pixel-6", Platform: "Android",
		WiFi: true, BatteryHigh: true, SessionSec: 300, AcceptSchemes: "zstd-tensor,brotli9"})
	if res.Cohort != transport.CohortDefault || res.TaskScheme != "f32" || res.UpdateScheme != "f32" {
		t.Fatalf("unknown-scheme check-in negotiated %+v", res)
	}
	if c.Counters().Counter("transport_fallback_f32").Value() == 0 {
		t.Fatal("transport_fallback_f32 counter never bumped")
	}
	if c.Counters().Counter("checkin_unknown_scheme").Value() < 2 {
		t.Fatal("checkin_unknown_scheme counter missed the unknown entries")
	}
	// And the served blob really is f32, not the cohort's q8.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/task?device=1", nil)
	req.Header.Set("Accept", transport.ContentTypeTensor)
	req.Header.Set(transport.HeaderAcceptSchemes, "zstd-tensor,brotli9")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback task: HTTP %d", resp.StatusCode)
	}
	if _, s, err := codec.Decode(blob); err != nil || s != codec.F32 {
		t.Fatalf("fallback blob scheme %v (err %v), want f32", s, err)
	}

	// A cellular device with full capabilities lands in the lowbw
	// cohort and keeps its policy (defaults: topk broadcast).
	res = checkin(CheckInRequest{DeviceID: 2, Model: "Moto-G7", Platform: "Android",
		WiFi: false, BatteryHigh: true, SessionSec: 300, AcceptSchemes: "f32,q8,topk,raw64"})
	if res.Cohort != transport.CohortLowBW {
		t.Fatalf("cellular device cohort %q", res.Cohort)
	}
	// A legacy check-in (no advertisement) still gets cohort metadata
	// and the unfiltered policy.
	res = checkin(CheckInRequest{DeviceID: 3, Model: "Pixel-6", Platform: "Android",
		WiFi: true, BatteryHigh: true, SessionSec: 300})
	if res.Cohort != transport.CohortDefault || res.TaskScheme != "q8" {
		t.Fatalf("legacy check-in negotiated %+v", res)
	}
	if c.Counters().Counter("task_cohort_default").Value() == 0 {
		t.Fatal("task_cohort_default counter never bumped")
	}
}

// TestDeltaBroadcast drives the version ring end to end over HTTP: a
// device holding a ring-resident version receives a delta frame that
// reproduces the published vector, repeated bases hit the delta cache,
// an aged-out base falls back to the full broadcast, and an up-to-date
// device gets a near-empty frame.
func TestDeltaBroadcast(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 1,
		Quorum:        1,
		OverCommit:    8,
		RoundDeadline: time.Minute,
		KeepVersions:  -1,
		// Lossless schemes so delta reconstruction is checkable tightly.
		Transport: transport.Config{
			Default:      transport.Policy{Task: codec.RawF64, Update: codec.Q8, Delta: codec.RawF64},
			DeltaHistory: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := srv.Client()

	for id := int64(1); id <= 3; id++ {
		body, _ := json.Marshal(CheckInRequest{DeviceID: id, Model: "Pixel-6", WiFi: true,
			BatteryHigh: true, SessionSec: 600, Weight: 1, AcceptSchemes: "f32,q8,topk,raw64"})
		resp, err := client.Post(srv.URL+"/v1/checkin", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// fetch pulls a binary task for dev, optionally advertising a held
	// base version, and returns the response headers plus body.
	fetch := func(dev, base int) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/task?device=%d", srv.URL, dev), nil)
		req.Header.Set("Accept", transport.ContentTypeTensor)
		if base > 0 {
			req.Header.Set(transport.HeaderBaseVersion, strconv.Itoa(base))
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("task for device %d: HTTP %d", dev, resp.StatusCode)
		}
		return resp, body
	}
	// submit posts a JSON update for the task the device holds, then
	// waits for the commit it triggers.
	submit := func(dev int, resp *http.Response) {
		t.Helper()
		round, _ := strconv.ParseUint(resp.Header.Get(transport.HeaderRound), 10, 64)
		base, _ := strconv.Atoi(resp.Header.Get(transport.HeaderBaseVersion))
		delta := make([]float64, c.global.NumParams())
		for i := range delta {
			delta[i] = 0.001 * float64(dev)
		}
		body, _ := json.Marshal(UpdateRequest{DeviceID: int64(dev), RoundID: round,
			BaseVersion: base, Weight: 1, Delta: delta})
		r, err := client.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("update from device %d: HTTP %d", dev, r.StatusCode)
		}
		// The version counter moves just before the serving pair swaps:
		// wait for the swap, or the next fetch can land on the concluded
		// round and draw a 204.
		deadline := time.Now().Add(10 * time.Second)
		for c.serving.Load().bcast.version <= base {
			if time.Now().After(deadline) {
				t.Fatalf("round after v%d never committed", base)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	published := func(v int) tensor.Vector {
		t.Helper()
		m, err := c.Store().Get(c.Config().ModelName, v)
		if err != nil {
			t.Fatal(err)
		}
		return m.Params()
	}

	// Round 1: device 1 takes the full broadcast at v1 and commits v2.
	resp, body := fetch(1, 0)
	if h := resp.Header.Get(transport.HeaderDelta); h != "" {
		t.Fatalf("fresh device got a delta frame (base %s)", h)
	}
	v1, _, err := codec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	submit(1, resp)

	// Device 2 holds v1: it gets a delta frame against it that rebuilds
	// the published v2 exactly (raw64 end to end).
	resp, body = fetch(2, 1)
	if got := resp.Header.Get(transport.HeaderDelta); got != "1" {
		t.Fatalf("%s = %q, want 1", transport.HeaderDelta, got)
	}
	if !codec.IsDelta(body) {
		t.Fatal("delta response body not delta-framed")
	}
	if full, err := codec.Encode(published(2), codec.RawF64); err == nil && len(body) >= len(full)*2 {
		t.Fatalf("delta frame (%d bytes) not smaller than 2x full (%d bytes)", len(body), len(full))
	}
	rebuilt, _, err := codec.ApplyDelta(v1, body)
	if err != nil {
		t.Fatal(err)
	}
	diff := rebuilt.Clone()
	diff.Sub(published(2))
	if diff.Norm2() > 1e-9 {
		t.Fatalf("delta reconstruction off by %g", diff.Norm2())
	}

	// Device 3 asks from the same base: the frame comes from the cache.
	fetch(3, 1)
	if c.Counters().Counter("delta_cache_hits").Value() == 0 {
		t.Fatal("second same-base delta missed the cache")
	}

	// Commit twice more (v3, v4): with DeltaHistory 2 the ring now
	// holds {v3, v4} and base v1 has aged out.
	submit(2, resp)
	resp3, _ := fetch(3, 0)
	submit(3, resp3)
	if v := c.Version(); v != 4 {
		t.Fatalf("version %d, want 4", v)
	}
	aged := c.Counters().Counter("delta_base_aged").Value()
	resp, _ = fetch(1, 1)
	if h := resp.Header.Get(transport.HeaderDelta); h != "" {
		t.Fatalf("aged-out base still served a delta (base %s)", h)
	}
	if c.Counters().Counter("delta_base_aged").Value() <= aged {
		t.Fatal("delta_base_aged counter never bumped")
	}

	// An up-to-date device gets a near-empty "no change" frame.
	resp, body = fetch(2, 4)
	if got := resp.Header.Get(transport.HeaderDelta); got != "4" {
		t.Fatalf("current-version delta header %q", got)
	}
	if len(body) > 256 {
		t.Fatalf("no-change delta frame is %d bytes", len(body))
	}
	same, _, err := codec.ApplyDelta(published(4), body)
	if err != nil {
		t.Fatal(err)
	}
	d2 := same.Clone()
	d2.Sub(published(4))
	if d2.Norm2() != 0 {
		t.Fatal("no-change delta moved the params")
	}

	// A device that cannot decode topk must not get the topk no-change
	// shortcut: its frame stays within the schemes it advertised.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/task?device=3", nil)
	req.Header.Set("Accept", transport.ContentTypeTensor)
	req.Header.Set(transport.HeaderBaseVersion, "4")
	req.Header.Set(transport.HeaderAcceptSchemes, "f32,q8")
	r2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(r2.Body)
	r2.Body.Close()
	if err != nil || r2.StatusCode != http.StatusOK {
		t.Fatalf("constrained no-change fetch: HTTP %d, err %v", r2.StatusCode, err)
	}
	if got := r2.Header.Get(transport.HeaderDelta); got != "4" {
		t.Fatalf("constrained no-change delta header %q", got)
	}
	if _, s, err := codec.Decode(body); err != nil || s.Kind == codec.KindTopK || s.Kind == codec.KindRawF64 {
		t.Fatalf("constrained no-change frame scheme %v (err %v): outside the advertised list", s, err)
	}
}

// TestUpdateOversizeRejected pins the 413 contract on both update paths:
// oversize bodies are refused loudly and counted, never silently
// truncated into a confusing codec error.
func TestUpdateOversizeRejected(t *testing.T) {
	c, err := New(Config{
		Mode:          ModeSync,
		ModelKind:     model.KindA,
		Seed:          1,
		TargetUpdates: 4,
		Quorum:        2,
		RoundDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := srv.Client()

	oversize := make([]byte, maxUpdateBody+16)
	copy(oversize, "FCT") // plausible start; the size check must fire first

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/update", bytes.NewReader(oversize))
	req.Header.Set("Content-Type", transport.ContentTypeTensor)
	req.Header.Set(transport.HeaderDevice, "1")
	req.Header.Set(transport.HeaderRound, "1")
	req.Header.Set(transport.HeaderBaseVersion, "1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize binary update: HTTP %d, want 413", resp.StatusCode)
	}
	if c.Counters().Counter("update_rejected_oversize").Value() != 1 {
		t.Fatal("oversize binary update not counted")
	}

	// JSON path: an over-budget body dies in MaxBytesReader mid-decode.
	jsonBody := append([]byte(`{"delta":[`), bytes.Repeat([]byte("1,"), (maxUpdateBody/2)+16)...)
	jsonBody = append(jsonBody, []byte("1]}")...)
	resp, err = client.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize JSON update: HTTP %d, want 413", resp.StatusCode)
	}
	if c.Counters().Counter("update_rejected_oversize").Value() != 2 {
		t.Fatal("oversize JSON update not counted")
	}
}

// TestPerCohortDeltaWindow pins that delta admissibility is the
// requesting cohort's depth window, not the ring's: the ring is sized to
// the deepest cohort, so a default-cohort device whose base is still
// physically retained but past its own (shallower) window takes the full
// broadcast — counted as an aged base — while a low-bandwidth device
// with the very same base still rides a delta frame.
func TestPerCohortDeltaWindow(t *testing.T) {
	c, err := New(Config{
		Mode:           ModeAsync,
		ModelKind:      model.KindA,
		Seed:           1,
		TargetUpdates:  1,
		Quorum:         1,
		MaxInflight:    1 << 30,
		RoundDeadline:  time.Minute,
		StalenessAlpha: 0.5,
		QueueDepth:     64,
		KeepVersions:   -1,
		Transport: transport.Config{
			Default:      transport.Policy{Task: codec.RawF64, Update: codec.RawF64, Delta: codec.RawF64, DeltaDepth: 2},
			LowBW:        transport.Policy{Task: codec.RawF64, Update: codec.RawF64, Delta: codec.RawF64, DeltaDepth: 4},
			DeltaHistory: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := func(id int64, wifi bool) DeviceInfo {
		return DeviceInfo{ID: id, Model: "Pixel-6", Platform: "Android",
			WiFi: wifi, BatteryHigh: true, ModernOS: true, SessionSec: 3600, Weight: 1}
	}
	// Device 1 commits three rounds: v1 -> v4, all retained (ring 4).
	c.CheckIn(info(1, true))
	for c.Version() < 4 {
		task, err := c.RequestTask(1)
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		delta := tensor.NewVector(task.Dim)
		delta.Fill(0.001)
		if err := c.SubmitUpdate(Submission{DeviceID: 1, RoundID: task.RoundID,
			BaseVersion: task.BaseVersion, Weight: 1, Delta: delta}); err != nil {
			t.Fatal(err)
		}
		base := task.BaseVersion
		eventually(t, 10*time.Second, func() bool { return c.Version() > base },
			"commit never landed")
	}

	// Default cohort (WiFi), base v1: 3 versions behind, inside the ring
	// (depth 4) but past the cohort window (2) -> full broadcast.
	c.CheckIn(info(2, true))
	aged := c.Counters().Counter("delta_base_aged").Value()
	task, err := c.RequestTaskWith(2, TaskQuery{Binary: true, BaseVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if task.Cohort != transport.CohortDefault {
		t.Fatalf("device 2 cohort %q", task.Cohort)
	}
	if task.DeltaBase != 0 {
		t.Fatalf("shallow cohort got a delta against base %d, want full broadcast", task.DeltaBase)
	}
	if got := c.Counters().Counter("delta_base_aged").Value(); got != aged+1 {
		t.Fatalf("delta_base_aged = %d, want %d (past-window base not counted)", got, aged+1)
	}

	// Same base from the low-bandwidth cohort (cellular): within its
	// deeper window -> delta frame against v1.
	c.CheckIn(info(3, false))
	task, err = c.RequestTaskWith(3, TaskQuery{Binary: true, BaseVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if task.Cohort != transport.CohortLowBW {
		t.Fatalf("device 3 cohort %q", task.Cohort)
	}
	if task.DeltaBase != 1 {
		t.Fatalf("deep cohort DeltaBase = %d, want 1", task.DeltaBase)
	}
	m, err := c.Store().Get(c.Config().ModelName, 1)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _, err := codec.ApplyDelta(m.Params(), task.EncodedParams)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.Store().Get(c.Config().ModelName, task.BaseVersion)
	if err != nil {
		t.Fatal(err)
	}
	diff := rebuilt.Clone()
	diff.Sub(cur.Params())
	if diff.Norm2() > 1e-9 {
		t.Fatalf("lowbw delta reconstruction off by %g", diff.Norm2())
	}

	// A default-cohort base inside the shallow window still deltas.
	c.CheckIn(info(4, true))
	task, err = c.RequestTaskWith(4, TaskQuery{Binary: true, BaseVersion: c.Version() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if task.DeltaBase == 0 {
		t.Fatal("in-window default-cohort base did not delta")
	}
}
