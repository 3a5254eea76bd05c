package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"flint/internal/codec"
	"flint/internal/model"
)

// decodeMatchesOracle fails t unless decodeJSON returns what
// encoding/json's Decoder.Decode returns over the same bytes: the same
// error-or-nil and, on success, a DeepEqual value.
func decodeMatchesOracle[T any](t *testing.T, body []byte, scan func(*scanner, *T)) {
	t.Helper()
	var got, want T
	gotErr := decodeJSON(body, &got, scan)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T from %q: error %v, encoding/json says %v", got, body, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\n got %#v\nwant %#v", got, body, got, want)
	}
}

func FuzzJSONBodies(f *testing.F) {
	for _, v := range []any{
		CheckInRequest{DeviceID: 7, Model: "Pixel-6", Platform: "android", WiFi: true, SessionSec: 1e-7, Weight: 3, AcceptSchemes: "f32,q8"},
		BatchCheckInRequest{Devices: []CheckInRequest{{DeviceID: 1}, {DeviceID: math.MinInt64, Model: "é"}}},
		BatchCheckInRequest{Devices: []CheckInRequest{}},
		UpdateRequest{DeviceID: 1, RoundID: math.MaxUint64, BaseVersion: 3, Weight: 2, Delta: []float64{-0.5, 1e-07, 1e21, 0}},
		UpdateRequest{Delta: []float64{}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``, `null`, ` {} `, `{"model":"a\"b"}`, `{"model":"\u00e9"}`, `{"Device_ID":5}`, `{"device_id":1,"device_id":2}`,
		`{"device_id":1}garbage`, `{"device_id":1} {"device_id":2}`, `{"session_sec":1e400}`, `{"device_id":-0}`,
		`{"device_id":1.0}`, `{"base_version":2e0}`, `{"round_id":-1}`, `{"delta":null}`, `{"delta":[1,,2]}`, `{"delta":[-0,1E+5,0.25e-3]}`,
		`{"delta":[01]}`, `{"delta":[1,2],"delta":[3]}`, `{"delta":[1],"delta":[]}`, `{"devices":[{"device_id":1}],"devices":[{"model":"x"}]}`, `{"devices":[null]}`,
		`{"device_id":1,}`, `{"delta":[1,]}`, `{"devices":[{},]}`, `{"wifi":tru}`, `{"wifi":1}`, `{"model":"` + "\xff" + `"}`, "{\"model\":\"\t\"}", `{"x":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeMatchesOracle(t, body, (*scanner).checkIn)
		decodeMatchesOracle(t, body, (*scanner).batch)
		decodeMatchesOracle(t, body, (*scanner).update)
	})
}

// fastDecode parses body with the canonical-subset parser alone, failing t
// if it falls back, and checks the value against encoding/json.
func fastDecode[T any](t *testing.T, body []byte, parse func(*scanner, *T)) T {
	t.Helper()
	var got, want T
	s := scanner{b: body}
	if parse(&s, &got); s.bad {
		t.Fatalf("%T body of %d bytes fell back to encoding/json", got, len(body))
	}
	if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T fast decode differs from encoding/json (err %v)", got, err)
	}
	return got
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireJSONProducersTakeFastPath pins that json.Marshal output of the
// request structs — what fleet.Client sends — never falls back: a silent
// fallback keeps every other test green while losing the whole gain.
func TestWireJSONProducersTakeFastPath(t *testing.T) {
	checkIns := []CheckInRequest{
		{DeviceID: 42, Model: "Pixel-6", Platform: "android", WiFi: true, BatteryHigh: true, ModernOS: true, SessionSec: 600, Weight: 1},
		{DeviceID: math.MaxInt64, Model: "Xperia 1 Ⅲ", SessionSec: 1e-7, Weight: 1e21, AcceptSchemes: "f32,q8,topk,raw64"},
		{DeviceID: math.MinInt64, Platform: "ios", SessionSec: -0.5, Weight: 123.456},
	}
	for _, req := range checkIns {
		if got := fastDecode(t, marshal(t, req), (*scanner).checkIn); got != req {
			t.Fatalf("check-in %+v decoded as %+v", req, got)
		}
	}

	rng := rand.New(rand.NewSource(1))
	big := make([]float64, 189_039)
	for i := range big {
		big[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-20))
	}
	for _, delta := range [][]float64{{}, big} {
		req := UpdateRequest{DeviceID: -9, RoundID: math.MaxUint64, BaseVersion: 17, Weight: 0.5, Delta: delta}
		if got := fastDecode(t, marshal(t, req), (*scanner).update); !reflect.DeepEqual(got, req) {
			t.Fatalf("update with %d-element delta decoded differently", len(delta))
		}
	}

	batch := BatchCheckInRequest{Devices: make([]CheckInRequest, 2048)}
	for i := range batch.Devices {
		batch.Devices[i] = checkIns[i%len(checkIns)]
		batch.Devices[i].DeviceID = int64(i)
	}
	if got := fastDecode(t, marshal(t, batch), (*scanner).batch); !reflect.DeepEqual(got, batch) {
		t.Fatal("2048-device batch decoded differently")
	}

	// Decode into the pooled buffer, reuse it for a second body and
	// re-check the first result: nothing decoded may alias the buffer.
	buf := getWireBuf()
	defer putWireBuf(buf)
	first := CheckInRequest{DeviceID: 1, Model: "aaaaaaaa", Platform: "bbbbbbbb", AcceptSchemes: "q8"}
	second := CheckInRequest{DeviceID: 2, Model: "zzzzzzzz", Platform: "yyyyyyyy", AcceptSchemes: "f3"}
	*buf = append((*buf)[:0], marshal(t, first)...)
	gotFirst := fastDecode(t, *buf, (*scanner).checkIn)
	upd := UpdateRequest{Delta: []float64{1, 2, 3}}
	*buf = append((*buf)[:0], marshal(t, upd)...)
	gotUpd := fastDecode(t, *buf, (*scanner).update)
	*buf = append((*buf)[:0], marshal(t, second)...)
	fastDecode(t, *buf, (*scanner).checkIn)
	if gotFirst != first || !reflect.DeepEqual(gotUpd, upd) {
		t.Fatalf("decoded values alias the body buffer: %+v, %+v", gotFirst, gotUpd)
	}
}

// TestWireJSONRepliesMatchEncoder pins the reply appenders byte for byte to
// json.NewEncoder(w).Encode of the same struct.
func TestWireJSONRepliesMatchEncoder(t *testing.T) {
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// taskReply assembles what handleTask writes: head, params, tail.
	taskReply := func(task *Task, params []byte) []byte {
		b, at := appendTaskReply(nil, task, len(params) > 0)
		return slices.Concat(b[:at], params, b[at:])
	}
	same := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	odd := []string{"", "lowbw", "<", ">", "&", `"`, `\`, "\u2028", "\xff", `<a href="x">&amp;</a>`, "tab\there\nline\r\x01\x1f\b\f\\", "sep\u2028par\u2029", "bad\xffutf8\xc3", "ünïcode ☃ \U0001F600"}
	for _, s := range odd {
		for _, r := range []CheckInResponse{
			{},
			{New: true, Eligible: true, Version: 12, RoundID: math.MaxUint64, Cohort: s, TaskScheme: "q8", UpdateScheme: s},
			{Version: -1, TaskScheme: s},
		} {
			same("check-in reply", appendCheckInReply(nil, &r), encode(r))
		}
		task := Task{RoundID: 3, BaseVersion: 2, ModelKind: model.Kind(s), Dim: 1519, LocalSteps: 5, Deadline: time.Now(), UpdateScheme: codec.Q8}
		same("task reply without params", taskReply(&task, nil), encode(TaskResponse{RoundID: 3, BaseVersion: 2,
			ModelKind: s, Dim: 1519, LocalSteps: 5, DeadlineMS: task.Deadline.UnixMilli(), UpdateScheme: "q8"}))
	}
	for _, ids := range [][]int64{nil, {}, {7}, {1, math.MinInt64, math.MaxInt64}} {
		r := BatchCheckInResponse{Accepted: 10, New: 3, Eligible: 2, RejectedIDs: ids, Version: 4, RoundID: 9}
		same("batch reply", appendBatchReply(nil, &r), encode(r))
	}
	same("update reply", acceptedReply, encode(UpdateResponse{Accepted: true}))

	// The spliced params equal encoding the vector itself.
	params := []float64{0, -0.5, 1e-07, 1e21, 123456789, math.SmallestNonzeroFloat64, math.MaxFloat64}
	task := Task{RoundID: 1, BaseVersion: 1, ModelKind: model.KindA, Dim: len(params), LocalSteps: 1, Deadline: time.UnixMilli(5), UpdateScheme: codec.F32}
	same("task reply", taskReply(&task, marshal(t, params)), encode(TaskResponse{RoundID: 1, BaseVersion: 1,
		ModelKind: "A", Dim: len(params), Params: params, LocalSteps: 1, DeadlineMS: 5, UpdateScheme: "f32"}))
}

// TestCheckInBodyBound pins the single check-in's body budget: over it is
// 413 whether the length is declared or streamed; a canonical body is 200.
func TestCheckInBodyBound(t *testing.T) {
	c, err := New(Config{Mode: ModeSync, ModelKind: model.KindA, Seed: 1, TargetUpdates: 4, Quorum: 2, RoundDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	post := func(body io.Reader) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/checkin", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := []byte(`{"model":"` + strings.Repeat("A", 1<<20) + `"}`)
	if code := post(bytes.NewReader(huge)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB check-in: HTTP %d, want 413", code)
	}
	if code := post(io.MultiReader(bytes.NewReader(huge))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB chunked check-in: HTTP %d, want 413", code)
	}
	small := marshal(t, CheckInRequest{DeviceID: 1, Model: "Pixel-6", Platform: "android", WiFi: true, BatteryHigh: true,
		ModernOS: true, SessionSec: 600, Weight: 1, AcceptSchemes: "f32,q8,topk,raw64"})
	if len(small) > 200 {
		t.Fatalf("canonical check-in is %d bytes", len(small))
	}
	if code := post(bytes.NewReader(small)); code != http.StatusOK {
		t.Fatalf("canonical check-in: HTTP %d, want 200", code)
	}
}

// TestReadJSONGrowsAsBytesArrive pins that a declared Content-Length
// reserves nothing: a client that declares the whole update budget and
// sends a few bytes must not make the server allocate the declared size.
func TestReadJSONGrowsAsBytesArrive(t *testing.T) {
	body := marshal(t, UpdateRequest{DeviceID: 1, Delta: []float64{1, 2}})
	// Other goroutines may allocate during a measurement; the least of a
	// few is this call's own.
	least := uint64(math.MaxUint64)
	for range 3 {
		r := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
		r.ContentLength = maxUpdateBody
		buf := new([]byte)
		var req UpdateRequest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readUpdate(httptest.NewRecorder(), r, buf, &req)
		runtime.ReadMemStats(&after)
		if err != nil || len(req.Delta) != 2 {
			t.Fatalf("readUpdate: %v, delta %v", err, req.Delta)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 64<<10 {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes", len(body), maxUpdateBody, least)
	}
}
