package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/tenant"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// recordingBackend is a fake shard replica: it records which paths and
// devices reached it and answers enough of the /v1 API for the gateway
// tests.
type recordingBackend struct {
	mu   sync.Mutex
	hits []string // "METHOD path device"
}

func (b *recordingBackend) handler(index int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		device := r.URL.Query().Get("device")
		if device == "" {
			device = r.Header.Get("X-Flint-Device")
		}
		if device == "" {
			var req struct {
				DeviceID int64 `json:"device_id"`
			}
			body, _ := io.ReadAll(r.Body)
			if json.Unmarshal(body, &req) == nil && req.DeviceID != 0 {
				device = strconv.FormatInt(req.DeviceID, 10)
			}
		}
		b.mu.Lock()
		b.hits = append(b.hits, fmt.Sprintf("%s %s %s", r.Method, r.URL.Path, device))
		b.mu.Unlock()
		if r.URL.Path == "/v1/status" {
			coord.WriteJSON(w, http.StatusOK, backendStatus(index))
			return
		}
		coord.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
}

func (b *recordingBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.hits)
}

func newTestGateway(t *testing.T, backends int) (*Gateway, *Leader, []*recordingBackend) {
	t.Helper()
	leader, err := NewLeader(LeaderConfig{Shards: backends, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recordingBackend, backends)
	urls := make([]string, backends)
	for i := range recs {
		recs[i] = &recordingBackend{}
		srv := httptest.NewServer(recs[i].handler(i))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	gw, err := NewGateway(GatewayConfig{Shards: urls, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	return gw, leader, recs
}

func TestGatewayHaltsTasksWhileUnhealthy(t *testing.T) {
	gw, leader, recs := newTestGateway(t, 2)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	// No shard has pinged: the tier is unhealthy and task assignment is
	// halted at the front door.
	resp, err := http.Get(srv.URL + "/v1/task?device=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("halted tier served a task: %s", resp.Status)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("halt response missing Retry-After")
	}
	// The header carries jitter (±25% around 1s) so a halted fleet does
	// not retry in lockstep when the tier heals.
	secs, err := strconv.ParseFloat(ra, 64)
	if err != nil {
		t.Fatalf("Retry-After %q is not a number: %v", ra, err)
	}
	if secs < 0.75 || secs > 1.25 {
		t.Fatalf("Retry-After %v outside the ±25%% jitter band around 1s", secs)
	}
	if recs[0].count()+recs[1].count() != 0 {
		t.Fatal("halted task leaked through to a shard")
	}
	// Heartbeats and check-ins still pass during a halt — only new work
	// stops.
	resp, err = http.Post(srv.URL+"/v1/heartbeat?device=5", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat blocked during halt: %s", resp.Status)
	}

	leader.Ping(0)
	leader.Ping(1)
	resp, err = http.Get(srv.URL + "/v1/task?device=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy tier refused a task: %s", resp.Status)
	}
}

func TestGatewayRoutesByDeviceID(t *testing.T) {
	gw, leader, recs := newTestGateway(t, 2)
	leader.Ping(0)
	leader.Ping(1)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	ring := gw.Ring()
	perShard := [2]int{}
	for id := int64(1); id <= 20; id++ {
		want := ring.Shard(id)
		perShard[want]++

		// Query-string verbs.
		resp, err := http.Get(fmt.Sprintf("%s/v1/task?device=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// JSON body verb (buffered, id extracted, body replayed).
		body, _ := json.Marshal(map[string]any{"device_id": id, "model": "Pixel-6"})
		resp, err = http.Post(srv.URL+"/v1/checkin", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// Binary update (header id, streamed body).
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/update", bytes.NewReader([]byte{1, 2, 3}))
		req.Header.Set("Content-Type", transport.ContentTypeTensor)
		req.Header.Set("X-Flint-Device", strconv.FormatInt(id, 10))
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		// Tenant-prefixed path routes by the same rule.
		resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/other/task?device=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for s, rec := range recs {
		if got, want := rec.count(), perShard[s]*4; got != want {
			t.Fatalf("shard %d saw %d requests, ring owed it %d\nhits: %v", s, got, want, rec.hits)
		}
		// Every hit must carry the id of a device the ring maps here.
		rec.mu.Lock()
		for _, h := range rec.hits {
			var method, path, device string
			fmt.Sscanf(h, "%s %s %s", &method, &path, &device)
			id, err := strconv.ParseInt(device, 10, 64)
			if err != nil || ring.Shard(id) != s {
				t.Fatalf("shard %d served misrouted request %q", s, h)
			}
		}
		rec.mu.Unlock()
	}
}

// backendStatus is fake shard i's /v1/status: one job "served" whose
// counts and version differ per shard.
func backendStatus(i int) tenant.StatusReport {
	n := i + 1
	return tenant.StatusReport{
		DefaultJob: "served",
		Jobs: map[string]tenant.JobStatus{"served": {
			Name: "served", Mode: coord.ModeSync, Model: "A", Version: 10 + i, Round: uint64(20 + i),
			Phase: coord.PhaseOpen, RoundsCommitted: int64(n), UpdatesAggregated: int64(10 * n),
			DevicesKnown: 100 * n, DevicesLive: 50 * n, MaxDevices: 1000, QuotaRejected: int64(2 * n),
			Protected: true, AuthRejected: int64(3 * n),
		}},
		Fleet: tenant.FleetRollup{
			Jobs: 1, DevicesKnown: 100 * n, DevicesLive: 50 * n, RoundsCommitted: int64(n), UpdatesAggregated: int64(10 * n),
			Counters: map[string]int64{"checkin_total": int64(7 * n), "tenant.auth_rejected_token": int64(3 * n)},
		},
	}
}

// TestGatewayRollup pins the tier's /v1/status fold: the shards' job rows
// and fleet sections add up, each job's version is the leader's, every
// other row field is the first answering shard's, and the tier section
// carries the leader's verdict and one row per shard.
func TestGatewayRollup(t *testing.T) {
	gw, leader, _ := newTestGateway(t, 2)
	leader.Ping(0)
	if err := leader.EnsureJob("served"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup status %s", resp.Status)
	}
	var roll tenant.StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	want := backendStatus(0).Jobs["served"]
	want.Version = 1 // the leader's, not either shard's
	want.RoundsCommitted, want.UpdatesAggregated = 3, 30
	want.DevicesKnown, want.DevicesLive = 300, 150
	want.QuotaRejected, want.AuthRejected = 6, 9
	if got := roll.Jobs["served"]; roll.DefaultJob != "served" || len(roll.Jobs) != 1 || got != want {
		t.Fatalf("folded job row %+v (default %q, %d rows), want %+v", got, roll.DefaultJob, len(roll.Jobs), want)
	}
	wantFleet := tenant.FleetRollup{Jobs: 1, DevicesKnown: 300, DevicesLive: 150, RoundsCommitted: 3, UpdatesAggregated: 30,
		Counters: map[string]int64{"checkin_total": 21, "tenant.auth_rejected_token": 9}}
	if !reflect.DeepEqual(roll.Fleet, wantFleet) {
		t.Fatalf("folded fleet %+v, want %+v", roll.Fleet, wantFleet)
	}
	tier := roll.Tier
	if tier == nil || tier.Healthy || tier.Shards != 2 {
		t.Fatalf("tier section %+v: want 2 shards, unhealthy with shard 1 silent", tier)
	}
	if tier.Counters["tier_pings"] != 1 || tier.Gateway["rollup_requests"] != 1 {
		t.Fatalf("tier counters %v, gateway counters %v", tier.Counters, tier.Gateway)
	}
	if len(tier.ShardRows) != 2 {
		t.Fatalf("tier has %d shard rows, want 2", len(tier.ShardRows))
	}
	for i, row := range tier.ShardRows {
		if row.Index != i || !row.OK || row.Error != "" || row.URL == "" || row.Versions["served"] != 10+i {
			t.Fatalf("shard row %d: %+v", i, row)
		}
	}
	if tier.ShardRows[0].PingMS < 0 || tier.ShardRows[1].PingMS != -1 {
		t.Fatalf("ping ages %d, %d: want shard 0 heard from, shard 1 never", tier.ShardRows[0].PingMS, tier.ShardRows[1].PingMS)
	}
	// The rollup's tier section is the leader's only status document.
	tierDoc, err := http.Get(srv.URL + "/shard/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	tierDoc.Body.Close()
	if tierDoc.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /shard/v1/status = %s, want 404", tierDoc.Status)
	}
}

// TestGatewayStatusBoundedByGrace: a shard that never answers its status
// read costs the tier's /v1/status one heartbeat grace, not the caller's
// whole deadline, and shows as an ok=false row with its error while the
// answering shard's rows still fold.
func TestGatewayStatusBoundedByGrace(t *testing.T) {
	const grace = 300 * time.Millisecond
	leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: grace, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer((&recordingBackend{}).handler(0))
	defer live.Close()
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer stalled.Close()
	defer close(release)
	gw, err := NewGateway(GatewayConfig{Shards: []string{live.URL, stalled.URL}, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := client.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatalf("tier status with a stalled shard: %v", err)
	}
	defer resp.Body.Close()
	// About one grace; the bound leaves room for a loaded machine and
	// still sits well inside the client's own deadline.
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("tier status took %v with a stalled shard, want about the %v grace", took, grace)
	}
	var roll tenant.StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	rows := roll.Tier.ShardRows
	if !rows[0].OK || rows[1].OK || rows[1].Error == "" {
		t.Fatalf("shard rows %+v: want shard 0 ok, shard 1 failed with its error", rows)
	}
	if roll.Jobs["served"].DevicesKnown != 100 {
		t.Fatalf("answering shard's row did not fold: %+v", roll.Jobs)
	}
}

// TestGatewayRelaysTaskBodies drives the relay through a one-shard
// gateway: a multi-chunk body arrives whole and exact with no proxy
// error; a body the shard aborts mid-stream is counted in proxy_errors
// and reaches the client as a failed read, not as a short body that
// looks complete; and a client that hangs up is not a proxy error.
func TestGatewayRelaysTaskBodies(t *testing.T) {
	if _, ok := any(writerOnly{}).(io.ReaderFrom); ok {
		t.Fatal("writerOnly exposes ReadFrom: the relay buffer would be bypassed")
	}
	body := make([]byte, 3*relayBufSize+12345)
	for i := range body {
		body[i] = byte(i * 7)
	}
	waiting := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("device") {
		case "2":
			// Chunked (no Content-Length), cut off after the first chunk.
			w.WriteHeader(http.StatusOK)
			w.Write(body[:relayBufSize])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case "3":
			// Hold the response until the gateway gives up on it.
			close(waiting)
			<-r.Context().Done()
		default:
			w.Write(body)
		}
	}))
	defer backend.Close()
	leader, err := NewLeader(LeaderConfig{Shards: 1, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	leader.Ping(0)
	gw, err := NewGateway(GatewayConfig{Shards: []string{backend.URL}, Leader: leader})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { served <- struct{}{} }()
		gw.ServeHTTP(w, r)
	}))
	defer srv.Close()
	proxyErrors := func(what string, want int64) {
		t.Helper()
		<-served
		if n := gw.Counters().Counter("proxy_errors").Value(); n != want {
			t.Fatalf("proxy_errors = %d after %s, want %d", n, what, want)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/task?device=1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("relayed %d of %d bytes (err %v), or altered them", len(got), len(body), err)
	}
	proxyErrors("a clean relay", 0)

	resp, err = http.Get(srv.URL + "/v1/task?device=2")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("client read a body the shard aborted mid-stream as complete")
	}
	proxyErrors("a mid-body abort", 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-waiting
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/task?device=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("a canceled request got a response")
	}
	proxyErrors("a client hang-up", 1)
}

// TestHTTPExchangeRoundTrip drives the wire form of the exchange: a
// partial posted through HTTPExchange must reach the leader as the
// exact codec blob, and every shard of the generation must get the
// fold's raw64 install back — both directions in codec wire form, no
// JSON re-framing.
func TestHTTPExchangeRoundTrip(t *testing.T) {
	gw, leader, _ := newTestGateway(t, 2)
	srv := httptest.NewServer(gw)
	defer srv.Close()
	x := NewHTTPExchange(srv.URL)

	if err := x.Ping(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Ping(1); err != nil {
		t.Fatal(err)
	}

	_, init := leader.Global("")
	if init == nil {
		if err := leader.EnsureJob(""); err != nil {
			t.Fatal(err)
		}
		_, init = leader.Global("")
	}
	partial := tensor.NewVector(len(init))
	for j := range partial {
		partial[j] = float64(j%7) / 50
	}
	blob, err := codec.Encode(partial, codec.RawF64)
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0's partial is held: its reply waits for the fold.
	submit := func(shard int, round uint64) <-chan coord.GlobalInstall {
		out := make(chan coord.GlobalInstall, 1)
		go func() {
			inst, err := x.SubmitPartial(coord.PartialCommit{
				ShardID: shard, Round: round, BaseVersion: leader.Version(""), Updates: 4, Weight: 40, Blob: blob,
			})
			if err != nil {
				t.Error(err)
			}
			out <- inst
		}()
		return out
	}
	held := submit(0, 1)
	waitFor(t, "shard 0's partial", func() bool { return leader.Counters().Counter("tier_partials_received").Value() == 1 })
	select {
	case inst := <-held:
		t.Fatalf("held partial answered v%d before the fold", inst.Version)
	case <-time.After(20 * time.Millisecond):
	}

	// Shard 1's partial completes the fold, and both shards get version 2
	// with the leader's full raw64 global.
	folded, held1 := <-submit(1, 1), <-held
	_, tier := leader.Global("")
	for _, inst := range []coord.GlobalInstall{folded, held1} {
		if inst.Version != 2 {
			t.Fatalf("fold answered v%d, want v2", inst.Version)
		}
		got, scheme, err := codec.Decode(inst.Blob)
		if err != nil {
			t.Fatal(err)
		}
		if scheme != codec.RawF64 {
			t.Fatalf("install blob scheme %v, want raw64", scheme)
		}
		for j := range got {
			if got[j] != tier[j] {
				t.Fatalf("install blob diverges from leader at %d", j)
			}
		}
	}

	// A second partial from a held shard is answered 409, not as a halt.
	held = submit(0, 2)
	waitFor(t, "shard 0's next partial", func() bool { return leader.Counters().Counter("tier_partials_received").Value() == 3 })
	_, err = x.SubmitPartial(coord.PartialCommit{ShardID: 0, Round: 3, BaseVersion: 2, Blob: blob})
	if err == nil || err == coord.ErrTierHalted || !strings.Contains(err.Error(), "409") {
		t.Fatalf("second partial from a held shard returned %v, want a 409", err)
	}
	if inst := <-submit(1, 2); inst.Version != 3 {
		t.Fatalf("second fold answered v%d, want v3", inst.Version)
	}
	if inst := <-held; inst.Version != 3 {
		t.Fatalf("held partial answered v%d, want v3", inst.Version)
	}

	// Halted exchange surfaces as ErrTierHalted across the wire.
	leader2, err := NewLeader(LeaderConfig{Shards: 2, Grace: time.Hour, Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := NewGateway(GatewayConfig{Shards: []string{"http://unused0", "http://unused1"}, Leader: leader2})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(gw2)
	defer srv2.Close()
	x2 := NewHTTPExchange(srv2.URL)
	if _, err := x2.SubmitPartial(coord.PartialCommit{ShardID: 0, BaseVersion: 1, Blob: blob}); err != coord.ErrTierHalted {
		t.Fatalf("halted exchange returned %v, want ErrTierHalted", err)
	}
}

// TestReadSized pins the partial-body read: a declared length buys the
// one buffer the body needs (io.ReadAll's doubling from 512 B re-copied a
// 1.5 MB partial ~5 times), while the length stays a hint — a body
// shorter or longer than declared or an unknown length still read whole,
// and a declaration reserves at most partialPresize ahead of the bytes.
func TestReadSized(t *testing.T) {
	body := bytes.Repeat([]byte("partial!"), 190_000) // ~1.5 MB
	for _, tc := range []struct {
		name     string
		declared int64
	}{
		{"exact", int64(len(body))},
		{"unknown", -1},
		{"short-claim", 100},
		{"long-claim", int64(2 * len(body))},
		{"max-claim", maxPartialBody},
		{"over-bound", maxPartialBody + 1},
	} {
		got, err := readSized(bytes.NewReader(body), tc.declared)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, want the %d-byte body", tc.name, len(got), len(body))
		}
		if tc.declared == int64(len(body)) && cap(got) > len(body)+len(body)/8 {
			t.Fatalf("%s: buffer cap %d for a %d-byte body: grown by doubling, not sized from the length", tc.name, cap(got), len(body))
		}
		if cap(got) > 2*partialPresize {
			t.Fatalf("%s: buffer cap %d for a %d-byte body: a declared length reserved more than partialPresize", tc.name, cap(got), len(body))
		}
	}
}

// TestFoldWaitIsBoundedByGrace: a held partial whose generation does not
// fold — the other shard is alive but sends nothing — waits at most the
// leader's Grace, in process and over HTTP. The shard then sends it again
// as a plain retry: neither side counts a halt, the leader does not count
// the partial twice, and closing the shard returns within Grace.
func TestFoldWaitIsBoundedByGrace(t *testing.T) {
	const grace = 300 * time.Millisecond
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("http=%v", wire), func(t *testing.T) {
			leader, err := NewLeader(LeaderConfig{Shards: 2, Grace: grace, Params: testParams})
			if err != nil {
				t.Fatal(err)
			}
			var ex interface {
				coord.PartialExchange
				Pinger
			} = leader
			if wire {
				gw, err := NewGateway(GatewayConfig{Shards: []string{"http://unused0", "http://unused1"}, Leader: leader})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(gw)
				defer srv.Close()
				ex = NewHTTPExchange(srv.URL)
			}
			for s := range 2 {
				hb := StartHeartbeat(ex, s, 20*time.Millisecond)
				defer hb.Stop()
			}
			waitFor(t, "tier healthy", leader.Healthy)
			c := newShardCoord(t, ex, 0, 2)
			checkInFleet(t, c, 0, 2)
			driveRound(t, c, 0, 2, 1)
			waitFor(t, "a wait that hit Grace", func() bool {
				return c.Counters().Counter("partial_exchange_retries").Value() > 0
			})
			if got := c.Counters().Counter("partial_exchange_halted").Value(); got != 0 {
				t.Fatalf("partial_exchange_halted = %d after a fold wait", got)
			}
			lc := leader.Counters()
			if h, p := lc.Counter("tier_halted_submissions").Value(), lc.Counter("tier_partials_received").Value(); h != 0 || p != 1 {
				t.Fatalf("tier_halted_submissions = %d, tier_partials_received = %d; want 0 and 1", h, p)
			}
			start := time.Now()
			c.Close()
			if d := time.Since(start); d > grace+200*time.Millisecond {
				t.Fatalf("Close took %v with a partial waiting, Grace is %v", d, grace)
			}
			if v := c.Version(); v != 1 {
				t.Fatalf("shard moved to v%d without a fold", v)
			}
		})
	}
}
