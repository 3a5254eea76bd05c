package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"flint/internal/coord"
	"flint/internal/tenant"
)

// batchBackend is a fake shard that understands /v1/checkin/batch: it
// records which devices its sub-batch carried and answers with
// shard-distinct version/round numbers so the merge rule is observable.
type batchBackend struct {
	index int
	mu    sync.Mutex
	seen  []int64
	fail  bool
}

func (b *batchBackend) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/checkin/batch" {
			coord.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
			return
		}
		if b.fail {
			http.Error(w, "shard down", http.StatusInternalServerError)
			return
		}
		var req coord.BatchCheckInRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		for _, d := range req.Devices {
			b.seen = append(b.seen, d.DeviceID)
		}
		b.mu.Unlock()
		coord.WriteJSON(w, http.StatusOK, coord.BatchCheckInResponse{
			Accepted: len(req.Devices),
			New:      len(req.Devices),
			Eligible: len(req.Devices) - 1,
			Version:  10 + b.index,
			RoundID:  uint64(100 + b.index),
		})
	})
}

// TestGatewayCheckInBatchSplit pins the batched check-in fan-out: one
// client batch is partitioned by the ring, each shard sees exactly its
// own devices, and the reply merges counts (sums) and version/round
// (max — shards publish independent sequences).
func TestGatewayCheckInBatchSplit(t *testing.T) {
	leader, err := NewLeader(LeaderConfig{Shards: 3, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	backs := make([]*batchBackend, 3)
	urls := make([]string, 3)
	var shard1 *httptest.Server
	for i := range backs {
		backs[i] = &batchBackend{index: i}
		srv := httptest.NewServer(backs[i].handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		if i == 1 {
			shard1 = srv
		}
	}
	gw, err := NewGateway(GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()

	var req coord.BatchCheckInRequest
	for id := int64(1); id <= 60; id++ {
		req.Devices = append(req.Devices, coord.CheckInRequest{DeviceID: id, Model: "Pixel-6"})
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through gateway: %s", resp.Status)
	}
	var out coord.BatchCheckInResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 60 || out.New != 60 {
		t.Fatalf("merged counts %+v, want 60 accepted/new", out)
	}
	ring := gw.Ring()
	shardsHit := 0
	for s, b := range backs {
		b.mu.Lock()
		for _, id := range b.seen {
			if ring.Shard(id) != s {
				t.Fatalf("shard %d got device %d owned by shard %d", s, id, ring.Shard(id))
			}
		}
		n := len(b.seen)
		b.mu.Unlock()
		if n > 0 {
			shardsHit++
		}
	}
	if shardsHit < 2 {
		t.Fatalf("only %d shards saw sub-batches for 60 devices", shardsHit)
	}
	// Eligible: each hit shard under-reports by one in the fake.
	if out.Eligible != 60-shardsHit {
		t.Fatalf("merged eligible %d, want %d", out.Eligible, 60-shardsHit)
	}
	// Version/round merge as max across the shards that answered.
	wantVer := 0
	for s, b := range backs {
		b.mu.Lock()
		if len(b.seen) > 0 && 10+s > wantVer {
			wantVer = 10 + s
		}
		b.mu.Unlock()
	}
	if out.Version != wantVer || out.RoundID != uint64(wantVer+90) {
		t.Fatalf("merged version/round %d/%d, want %d/%d", out.Version, out.RoundID, wantVer, wantVer+90)
	}

	// One shard failing poisons the whole batch (check-ins are
	// idempotent, so the client retries everything): a shard's error
	// answer is relayed as it is, an unreachable shard is a 502, and only
	// the latter is a proxy error.
	backs[1].fail = true
	post := func(want int) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("partial shard failure returned %s (%s), want %d", resp.Status, body, want)
		}
	}
	post(http.StatusInternalServerError)
	if n := gw.Counters().Counter("proxy_errors").Value(); n != 0 {
		t.Fatalf("relayed shard error counted as %d proxy errors", n)
	}
	shard1.Close()
	post(http.StatusBadGateway)
	if n := gw.Counters().Counter("proxy_errors").Value(); n != 1 {
		t.Fatalf("unreachable shard counted as %d proxy errors, want 1", n)
	}
}

// TestGatewayBatchMatchesServer sends the same batch check-ins to a
// token-protected job on a flat tenant server and through a two-shard
// gateway over tenant servers: the token reaches the shards, and both
// fronts answer every case with the server's status.
func TestGatewayBatchMatchesServer(t *testing.T) {
	plane := func() *httptest.Server {
		reg := tenant.NewRegistry(coord.Config{Mode: coord.ModeSync, Seed: 1, RoundDeadline: time.Minute})
		t.Cleanup(reg.Close)
		if _, err := reg.Register(tenant.JobSpec{Name: "secure", Token: "t0ken"}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(tenant.NewServer(reg, false))
		t.Cleanup(srv.Close)
		return srv
	}
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayConfig{Shards: []string{plane().URL, plane().URL}, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw)
	defer front.Close()
	flat := plane()

	batch := func(n int) []byte {
		var req coord.BatchCheckInRequest
		req.Devices = make([]coord.CheckInRequest, n)
		for i := range req.Devices {
			req.Devices[i] = coord.CheckInRequest{DeviceID: int64(i + 1), Model: "Pixel-6", WiFi: true}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := []struct {
		name, token string
		body        []byte
		want        int
	}{
		{"right token", "t0ken", batch(64), http.StatusOK},
		{"wrong token", "guess", batch(64), http.StatusUnauthorized},
		{"no devices", "t0ken", batch(0), http.StatusBadRequest},
		{"too many devices", "t0ken", batch(coord.MaxCheckInBatch + 1), http.StatusRequestEntityTooLarge},
		{"body too large", "t0ken", bytes.Repeat([]byte(" "), coord.MaxCheckInBatchBody+1), http.StatusRequestEntityTooLarge},
	}
	for _, front := range []struct{ name, url string }{{"flat", flat.URL}, {"gateway", front.URL}} {
		for _, tc := range cases {
			req, err := http.NewRequest(http.MethodPost, front.url+"/v1/jobs/secure/checkin/batch", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Authorization", "Bearer "+tc.token)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s, %s: HTTP %d (%s), want %d", front.name, tc.name, resp.StatusCode, bytes.TrimSpace(body), tc.want)
				continue
			}
			if tc.want != http.StatusOK {
				continue
			}
			var out coord.BatchCheckInResponse
			if err := json.Unmarshal(body, &out); err != nil || out.Accepted != 64 {
				t.Errorf("%s, %s: reply %s (%v), want 64 accepted", front.name, tc.name, body, err)
			}
		}
	}
	if n := gw.Counters().Counter("proxy_errors").Value(); n != 0 {
		t.Fatalf("proxy_errors = %d, want 0", n)
	}
}

// TestGatewayHostileBatchAllocBounded: the gateway refuses a batch body of
// millions of devices with 413 for the cost of reading it — at most 4× its
// size — before decoding the devices or forwarding a byte, whether the
// body is canonical or carries an escape.
func TestGatewayHostileBatchAllocBounded(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("hostile batch forwarded to a shard: %s", r.URL)
	}))
	defer shard.Close()
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayConfig{Shards: []string{shard.URL}, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"", `{"model":"\u0041"},`} {
		body := append([]byte(`{"devices":[`), head...)
		for len(body) < coord.MaxCheckInBatchBody-8 {
			body = append(body, `{},`...)
		}
		body = append(body, `{}]}`...)
		least := uint64(math.MaxUint64)
		for range 3 {
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", bytes.NewReader(body)))
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("hostile batch %q…: HTTP %d, want 413", head, rec.Code)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4*uint64(len(body)) {
			t.Fatalf("hostile batch %q… of %d bytes allocated %d bytes", head, len(body), least)
		}
	}
}
