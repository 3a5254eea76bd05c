// Package fleet is the device side of the serving protocol: one
// wire-protocol Client (this file) and the wall-clock load generator built
// on it (fleet.go). The server half lives in internal/coord; the two meet
// only at the wire contract — coord's JSON types and the names in
// internal/transport/wire.go.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// AcceptSchemes is the capability list a current client advertises at
// check-in and on every binary task request: every kind this build decodes.
var AcceptSchemes = transport.FormatAccept(transport.AllKinds())

// Client speaks the device protocol against one job of one server (or
// gateway). It is protocol only: drivers own pacing, retries, counting and
// latency recording, and pass in the response-body buffer each exchange
// reuses. A Client is immutable and safe for concurrent use.
type Client struct {
	// HTTP is the caller's connection pool.
	HTTP *http.Client
	// BaseURL is the server root without a trailing slash.
	BaseURL string
	// Job routes requests to /v1/jobs/<Job>/... instead of the bare /v1
	// default-job alias; Token, when set, rides as Authorization: Bearer.
	Job, Token string
	// Gateway marks BaseURL as a shard-tier gateway. Device traffic is
	// unchanged (the gateway routes every request to the device's owning
	// shard); only the Status and Ready probes read the tier rollup.
	Gateway bool
}

// Outcome is how the server answered one exchange. Every HTTP status is
// an outcome, never an error: errors are transport failures and replies
// this client cannot parse.
type Outcome int

const (
	// OK: the exchange did what it asked (200, or 202 on an update).
	OK Outcome = iota
	// NoTask (204): nothing to train right now; poll again later.
	NoTask
	// UnknownDevice (404): never checked in, or swept; check in again.
	UnknownDevice
	// Late (409): the update's round is already closed.
	Late
	// Shed (429, 503): quota or load shedding, or a halted tier; back off.
	Shed
	// Refused: any other status (400 malformed, 401 bad token, 413, ...).
	Refused
)

// Result describes one completed exchange. Sent is the request body size
// when the client encoded it (JSON exchanges; a tensor blob is the
// caller's, who knows its length); Recv is the response body size.
type Result struct {
	Outcome    Outcome
	Status     int
	Sent, Recv int
}

func classify(status int) Outcome {
	switch status {
	case http.StatusOK, http.StatusAccepted:
		return OK
	case http.StatusNoContent:
		return NoTask
	case http.StatusNotFound:
		return UnknownDevice
	case http.StatusConflict:
		return Late
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return Shed
	}
	return Refused
}

// url builds a device-API endpoint, routed through the job's path prefix
// when the client targets a named tenant.
func (c *Client) url(path string) string {
	if c.Job == "" {
		return c.BaseURL + "/v1" + path
	}
	return c.BaseURL + "/v1/jobs/" + c.Job + path
}

// do sends one request and drains the reply into buf, so the body is
// valid until buf's next use.
func (c *Client) do(ctx context.Context, buf *bytes.Buffer, method, url string, body io.Reader, hdr func(http.Header)) (*http.Response, Result, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, Result{}, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if hdr != nil {
		hdr(req.Header)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, Result{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, Result{Outcome: classify(resp.StatusCode), Status: resp.StatusCode, Recv: buf.Len()}, err
}

// doJSON is a JSON exchange: in (when non-nil) is the request body, out
// (when non-nil) receives the reply of an OK exchange.
func (c *Client) doJSON(ctx context.Context, buf *bytes.Buffer, method, url string, in, out any) (Result, error) {
	var body io.Reader
	var hdr func(http.Header)
	sent := 0
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return Result{}, err
		}
		body, sent = bytes.NewReader(raw), len(raw)
		hdr = func(h http.Header) { h.Set("Content-Type", "application/json") }
	}
	_, res, err := c.do(ctx, buf, method, url, body, hdr)
	res.Sent = sent
	if err == nil && out != nil && res.Outcome == OK {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	return res, err
}

// CheckIn is POST /v1/checkin.
func (c *Client) CheckIn(ctx context.Context, buf *bytes.Buffer, req coord.CheckInRequest) (coord.CheckInResponse, Result, error) {
	var out coord.CheckInResponse
	res, err := c.doJSON(ctx, buf, http.MethodPost, c.url("/checkin"), req, &out)
	return out, res, err
}

// CheckInBatch is POST /v1/checkin/batch: many check-ins, one round trip.
func (c *Client) CheckInBatch(ctx context.Context, buf *bytes.Buffer, devices []coord.CheckInRequest) (coord.BatchCheckInResponse, Result, error) {
	var out coord.BatchCheckInResponse
	res, err := c.doJSON(ctx, buf, http.MethodPost, c.url("/checkin/batch"), coord.BatchCheckInRequest{Devices: devices}, &out)
	return out, res, err
}

// Task is a parsed GET /v1/task reply. A JSON reply carries the model in
// Params; a binary one leaves Params nil and carries the codec blob in
// Body, which aliases the exchange's buffer — Rebuild it (or copy it)
// before the buffer's next use.
type Task struct {
	coord.TaskResponse
	// DeltaBase > 0 marks Body as a delta frame against that version.
	DeltaBase int
	Body      []byte
}

// FetchTask polls GET /v1/task for one device. A binary request
// negotiates the tensor protocol: it advertises AcceptSchemes and, when
// held > 0, names the version the device already holds so the server may
// answer with a delta frame. A JSON reply to a binary request (a server
// that predates the codec) is parsed as the JSON protocol, so binary
// clients interoperate both ways. The task is nil unless the outcome is OK.
func (c *Client) FetchTask(ctx context.Context, buf *bytes.Buffer, device int64, binary bool, held int) (*Task, Result, error) {
	url := c.url("/task") + "?device=" + strconv.FormatInt(device, 10)
	var hdr func(http.Header)
	if binary {
		hdr = func(h http.Header) {
			h.Set("Accept", transport.ContentTypeTensor)
			h.Set(transport.HeaderAcceptSchemes, AcceptSchemes)
			if held > 0 {
				h.Set(transport.HeaderBaseVersion, strconv.Itoa(held))
			}
		}
	}
	resp, res, err := c.do(ctx, buf, http.MethodGet, url, nil, hdr)
	if err != nil || res.Outcome != OK {
		return nil, res, err
	}
	t := new(Task)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), transport.ContentTypeTensor) {
		err = t.parseHeaders(resp.Header)
		t.Body = buf.Bytes()
	} else {
		err = json.Unmarshal(buf.Bytes(), &t.TaskResponse)
	}
	if err == nil && t.Dim <= 0 {
		err = fmt.Errorf("fleet: task with dimension %d", t.Dim)
	}
	if err != nil {
		return nil, res, err
	}
	return t, res, nil
}

// parseHeaders reads a binary task's X-Flint-* metadata.
func (t *Task) parseHeaders(h http.Header) (err error) {
	num := func(name string) uint64 {
		v, perr := strconv.ParseUint(h.Get(name), 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("fleet: bad %s header: %w", name, perr)
		}
		return v
	}
	t.RoundID = num(transport.HeaderRound)
	t.BaseVersion = int(num(transport.HeaderBaseVersion))
	t.Dim = int(num(transport.HeaderDim))
	t.LocalSteps = int(num(transport.HeaderLocalSteps))
	t.DeadlineMS = int64(num(transport.HeaderDeadlineMS))
	if h.Get(transport.HeaderDelta) != "" {
		t.DeltaBase = int(num(transport.HeaderDelta))
	}
	t.ModelKind = h.Get(transport.HeaderModelKind)
	t.UpdateScheme = h.Get(transport.HeaderUpdateScheme)
	return err
}

// Rebuild materializes the task's model parameters: a JSON task's Params,
// a full blob decoded, or a delta frame folded into held — the vector of
// version heldVersion the device kept from its last task.
func (t *Task) Rebuild(held tensor.Vector, heldVersion int) (tensor.Vector, error) {
	switch {
	case t.Body == nil:
		return t.Params, nil
	case t.DeltaBase == 0:
		params, _, err := codec.Decode(t.Body)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad task tensor: %w", err)
		}
		return params, nil
	case held == nil || t.DeltaBase != heldVersion:
		return nil, fmt.Errorf("fleet: delta against v%d but device holds v%d", t.DeltaBase, heldVersion)
	}
	params, _, err := codec.ApplyDelta(held, t.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet: bad task delta: %w", err)
	}
	return params, nil
}

// Update is one device's POST /v1/update metadata. The telemetry fields
// (the device's observed task download, local training time and — under
// virtual-time load only — its simulated uplink transfer) ride the tensor
// protocol's report headers; zero values are omitted.
type Update struct {
	Device      int64
	Round       uint64
	BaseVersion int
	Weight      float64

	DownBytes, UpBytes    int
	DownMS, TrainMS, UpMS float64
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SubmitTensor posts a codec blob the caller encoded under the task's
// UpdateScheme. body is a reader so a driver can meter the upload.
func (c *Client) SubmitTensor(ctx context.Context, buf *bytes.Buffer, u Update, body io.Reader) (Result, error) {
	_, res, err := c.do(ctx, buf, http.MethodPost, c.url("/update"), body, func(h http.Header) {
		h.Set("Content-Type", transport.ContentTypeTensor)
		h.Set(transport.HeaderDevice, strconv.FormatInt(u.Device, 10))
		h.Set(transport.HeaderRound, strconv.FormatUint(u.Round, 10))
		h.Set(transport.HeaderBaseVersion, strconv.Itoa(u.BaseVersion))
		h.Set(transport.HeaderWeight, fmtFloat(u.Weight))
		if u.DownBytes > 0 {
			h.Set(transport.HeaderDownBytes, strconv.Itoa(u.DownBytes))
			h.Set(transport.HeaderDownMS, fmtFloat(u.DownMS))
		}
		if u.TrainMS > 0 {
			h.Set(transport.HeaderTrainMS, fmtFloat(u.TrainMS))
		}
		if u.UpBytes > 0 {
			h.Set(transport.HeaderUpBytes, strconv.Itoa(u.UpBytes))
			h.Set(transport.HeaderUpMS, fmtFloat(u.UpMS))
		}
	})
	return res, err
}

// SubmitJSON posts the update on the JSON protocol (no telemetry).
func (c *Client) SubmitJSON(ctx context.Context, buf *bytes.Buffer, u Update, delta tensor.Vector) (Result, error) {
	return c.doJSON(ctx, buf, http.MethodPost, c.url("/update"), coord.UpdateRequest{
		DeviceID: u.Device, RoundID: u.Round, BaseVersion: u.BaseVersion, Weight: u.Weight, Delta: delta,
	}, nil)
}

// tierStatus is the slice of a gateway's /v1/status rollup a driver
// needs: the tier's global version for progress watching plus enough
// membership to gate a start on health. The rollup is always HTTP 200 —
// tier health is a field, not a status code.
type tierStatus struct {
	Version int `json:"version"`
	Tier    struct {
		Shards  int  `json:"shards"`
		Healthy bool `json:"healthy"`
	} `json:"tier"`
}

// probe GETs a status document. Probes run off the hot path (a watcher
// tick), so they use their own buffer.
func (c *Client) probe(ctx context.Context, url string, out any) error {
	res, err := c.doJSON(ctx, new(bytes.Buffer), http.MethodGet, url, nil, out)
	if err == nil && res.Outcome != OK {
		err = fmt.Errorf("fleet: %s returned HTTP %d", url, res.Status)
	}
	return err
}

func (c *Client) tier(ctx context.Context) (tierStatus, error) {
	var tier tierStatus
	err := c.probe(ctx, c.BaseURL+"/v1/status", &tier)
	return tier, err
}

// Status reads the job's /v1/status. Against a gateway it reads the tier
// rollup instead — which nests per-shard documents — and returns a bare
// document carrying only the tier's global version.
func (c *Client) Status(ctx context.Context) (*coord.StatusReport, error) {
	if c.Gateway {
		tier, err := c.tier(ctx)
		return &coord.StatusReport{Version: tier.Version}, err
	}
	st := new(coord.StatusReport)
	return st, c.probe(ctx, c.url("/status"), st)
}

// Ready returns the published version a run starts from and the tier's
// shard count (0 for a flat server). Against a gateway it first blocks
// until every shard is inside its heartbeat grace window: launching
// devices into a halted tier would only measure the halt gate's 503s.
func (c *Client) Ready(ctx context.Context) (version, shards int, err error) {
	if !c.Gateway {
		st, err := c.Status(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("fleet: cannot reach server: %w", err)
		}
		return st.Version, 0, nil
	}
	for {
		tier, err := c.tier(ctx)
		if err == nil && tier.Tier.Healthy {
			return tier.Version, tier.Tier.Shards, nil
		}
		if err == nil {
			err = fmt.Errorf("tier still unhealthy (%d shards)", tier.Tier.Shards)
		}
		if !SleepCtx(ctx, 100*time.Millisecond) {
			return 0, 0, fmt.Errorf("fleet: gave up waiting for tier health: %w (%v)", ctx.Err(), err)
		}
	}
}
