package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// TestClientOutcomes walks the device protocol against a real one-job
// tenant server, one exchange per row in protocol order: every server
// answer — a task in either protocol, a delta frame, no task, unknown
// device, a shed update — must come back as a typed outcome with a nil
// error, and the delta must rebuild to exactly the version it names.
func TestClientOutcomes(t *testing.T) {
	ctx := context.Background()
	c, srv := serveJob(t, coord.Config{
		Mode:           coord.ModeAsync,
		ModelKind:      model.KindA,
		Seed:           1,
		TargetUpdates:  1,
		Quorum:         1,
		MaxInflight:    1 << 30,
		RoundDeadline:  time.Minute,
		StalenessAlpha: 0.5,
		QueueDepth:     64,
		KeepVersions:   -1,
		Criteria:       availability.Criteria{RequireWiFi: true},
		// Lossless schemes, so rebuilt vectors compare exactly.
		Transport: transport.Config{Default: transport.Policy{Task: codec.RawF64, Update: codec.RawF64, Delta: codec.RawF64}},
	})
	cl := &Client{HTTP: srv.Client(), BaseURL: srv.URL}
	if v, shards, err := cl.Ready(ctx); err != nil || v != 1 || shards != 0 {
		t.Fatalf("Ready = v%d, %d shards, %v; want v1 on a flat server", v, shards, err)
	}
	var buf bytes.Buffer

	published := func(version int) tensor.Vector {
		m, err := c.Store().Get(c.Config().ModelName, version)
		if err != nil {
			t.Fatal(err)
		}
		return m.Params()
	}
	same := func(got, want tensor.Vector) bool {
		d := got.Clone()
		d.Sub(want)
		return len(got) == len(want) && d.Norm2() == 0
	}
	checkIn := func(id int64, wifi bool, accept string) func() (Result, error) {
		return func() (Result, error) {
			out, res, err := cl.CheckIn(ctx, &buf, coord.CheckInRequest{
				DeviceID: id, Platform: "android", WiFi: wifi, BatteryHigh: true, ModernOS: true,
				SessionSec: 600, Weight: 1, AcceptSchemes: accept,
			})
			if err == nil && out.Eligible != wifi {
				t.Errorf("device %d eligible = %v, want %v", id, out.Eligible, wifi)
			}
			return res, err
		}
	}
	// waitStatus polls the job's detail document until cond holds: the
	// commit an accepted update triggers runs on the ingest worker, after
	// the 200.
	waitStatus := func(t *testing.T, what string, cond func(*coord.StatusReport) bool) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			st := new(coord.StatusReport)
			if err := cl.probe(ctx, srv.URL+"/v1/jobs/served/status", st); err != nil {
				t.Fatalf("status probe: %v", err)
			}
			if cond(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: v%d, round %d %s on base v%d", what, st.Version, st.Round.ID, st.Round.Phase, st.Round.Base)
			}
		}
	}
	var task *Task
	var held tensor.Vector // device 2's model, version 1
	fetch := func(id int64, binary bool, base int) func() (Result, error) {
		return func() (res Result, err error) {
			task, res, err = cl.FetchTask(ctx, &buf, id, binary, base)
			return res, err
		}
	}

	steps := []struct {
		name  string
		run   func() (Result, error)
		want  Outcome
		check func(t *testing.T)
	}{
		{"check-in json device", checkIn(1, true, ""), OK, nil},
		{"check-in binary device", checkIn(2, true, AcceptSchemes), OK, nil},
		{"check-in ineligible device", checkIn(3, false, AcceptSchemes), OK, nil},
		{"json task", fetch(1, false, 0), OK, func(t *testing.T) {
			if task.Body != nil || task.BaseVersion != 1 || !same(task.Params, published(1)) {
				t.Fatalf("json task v%d: %d params, body %d bytes", task.BaseVersion, len(task.Params), len(task.Body))
			}
		}},
		{"no task for an ineligible device", fetch(3, true, 0), NoTask, nil},
		{"unknown device", fetch(99, true, 0), UnknownDevice, nil},
		{"binary full task", fetch(2, true, 0), OK, func(t *testing.T) {
			if task.DeltaBase != 0 || task.Dim != len(published(1)) || task.UpdateScheme != "raw64" || task.LocalSteps <= 0 {
				t.Fatalf("binary task metadata: %+v", task.TaskResponse)
			}
			var err error
			if held, err = task.Rebuild(nil, 0); err != nil || !same(held, published(1)) {
				t.Fatalf("full blob did not rebuild v1 (err %v)", err)
			}
		}},
		{"tensor update commits v2", func() (Result, error) {
			delta := make(tensor.Vector, task.Dim)
			for i := range delta {
				delta[i] = 0.01 * float64(i%7)
			}
			blob, err := codec.Encode(delta, codec.RawF64)
			if err != nil {
				t.Fatal(err)
			}
			u := Update{Device: 2, Round: task.RoundID, BaseVersion: task.BaseVersion, Weight: 1, DownBytes: 100, DownMS: 5, TrainMS: 7}
			return cl.SubmitTensor(ctx, &buf, u, bytes.NewReader(blob))
		}, OK, func(t *testing.T) {
			waitStatus(t, "commit of v2", func(st *coord.StatusReport) bool { return st.Version >= 2 })
		}},
		// Device 1's round-1 update lands in round 2 as a stale async
		// update and fills its target of 1, so it commits v3; the delta
		// fetch below must not race that commit's aggregating/committed
		// window, where the server answers 204.
		{"json update", func() (Result, error) {
			return cl.SubmitJSON(ctx, &buf, Update{Device: 1, Round: 1, BaseVersion: 1, Weight: 1}, make(tensor.Vector, len(held)))
		}, OK, func(t *testing.T) {
			waitStatus(t, "commit of v3", func(st *coord.StatusReport) bool {
				return st.Round.Phase == coord.PhaseOpen && st.Round.Base >= 3
			})
		}},
		{"check-in again", checkIn(2, true, AcceptSchemes), OK, nil},
		{"binary delta task", fetch(2, true, 1), OK, func(t *testing.T) {
			if task.DeltaBase != 1 || task.BaseVersion < 2 {
				t.Fatalf("want a delta against v1, got base %d for v%d", task.DeltaBase, task.BaseVersion)
			}
			if _, err := task.Rebuild(held, 7); err == nil {
				t.Fatal("delta applied against the wrong held version")
			}
			got, err := task.Rebuild(held, 1)
			if err != nil || !same(got, published(task.BaseVersion)) {
				t.Fatalf("delta did not rebuild v%d (err %v)", task.BaseVersion, err)
			}
		}},
		{"malformed update", func() (Result, error) {
			return cl.SubmitTensor(ctx, &buf, Update{Device: 2, Round: 1, BaseVersion: 1}, bytes.NewReader([]byte("garbage")))
		}, Refused, nil},
		{"update shed by a closing server", func() (Result, error) {
			c.Close()
			return cl.SubmitJSON(ctx, &buf, Update{Device: 1, Round: 1, BaseVersion: 1, Weight: 1}, make(tensor.Vector, len(held)))
		}, Shed, nil},
	}
	for _, s := range steps {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: transport error %v (HTTP %d)", s.name, err, res.Status)
		}
		if res.Outcome != s.want {
			t.Fatalf("%s: outcome %d (HTTP %d), want %d", s.name, res.Outcome, res.Status, s.want)
		}
		if s.check != nil {
			s.check(t)
		}
	}
}

// TestClientStubbedReplies covers the answers this repo's server never
// gives: a JSON reply to a binary task request and a task with
// unparseable metadata, each an error rather than an outcome, and a 409
// for an update whose round already closed.
func TestClientStubbedReplies(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/old/task", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept") != transport.ContentTypeTensor || r.Header.Get(transport.HeaderAcceptSchemes) != AcceptSchemes ||
			r.Header.Get(transport.HeaderBaseVersion) != "3" || r.Header.Get("Authorization") != "Bearer s3cret" {
			t.Errorf("binary task request headers: %v", r.Header)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"round_id":9,"base_version":4,"model_kind":"A","dim":3,"params":[1,2,3],"local_steps":5}`))
	})
	mux.HandleFunc("POST /v1/jobs/old/update", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
	})
	mux.HandleFunc("GET /v1/jobs/bad/task", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", transport.ContentTypeTensor)
		w.Header().Set(transport.HeaderRound, "not-a-number")
		w.Write([]byte("x"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()
	var buf bytes.Buffer

	cl := &Client{HTTP: srv.Client(), BaseURL: srv.URL, Job: "old", Token: "s3cret"}
	if task, _, err := cl.FetchTask(ctx, &buf, 1, true, 3); err == nil || task != nil {
		t.Fatalf("json reply to a binary request accepted: %+v", task)
	}
	res, err := cl.SubmitJSON(ctx, &buf, Update{Device: 1, Round: 9, BaseVersion: 4}, tensor.Vector{0, 0, 0})
	if err != nil || res.Outcome != Late {
		t.Fatalf("409 update: outcome %d (HTTP %d), err %v", res.Outcome, res.Status, err)
	}
	if res.Sent == 0 {
		t.Fatal("JSON exchange did not report its request size")
	}

	bad := &Client{HTTP: srv.Client(), BaseURL: srv.URL, Job: "bad"}
	if task, _, err := bad.FetchTask(ctx, &buf, 1, true, 0); err == nil || task != nil {
		t.Fatalf("unparseable task metadata accepted: %+v", task)
	}
}
