package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"flint/internal/codec"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// maxUpdateBody bounds a /v1/update body read: the largest zoo model is
// ~922k params, far under this, and it keeps a hostile Content-Length
// from ballooning the handler. Oversize bodies are rejected with 413 —
// not silently truncated, which would surface as a confusing codec
// payload-length error — and counted in update_rejected_oversize.
const maxUpdateBody = 64 << 20

// errBodyTooLarge marks an update body that exceeded maxUpdateBody; the
// handler maps it to HTTP 413.
var errBodyTooLarge = fmt.Errorf("update body exceeds %d-byte limit", maxUpdateBody)

// Wire types of the /v1 JSON API. Field names are the protocol; keep them
// stable.

// CheckInRequest is the POST /v1/checkin body.
type CheckInRequest struct {
	DeviceID    int64   `json:"device_id"`
	Model       string  `json:"model"`
	Platform    string  `json:"platform"`
	WiFi        bool    `json:"wifi"`
	BatteryHigh bool    `json:"battery_high"`
	ModernOS    bool    `json:"modern_os"`
	SessionSec  float64 `json:"session_sec"`
	Weight      float64 `json:"weight"`
	// AcceptSchemes is the device's advertised codec capability list
	// ("f32,q8,topk"), the Accept half of transport negotiation. Empty
	// means a legacy client that decodes everything this server ships.
	AcceptSchemes string `json:"accept_schemes,omitempty"`
}

// BatchCheckInRequest is the POST /v1/checkin/batch body: many check-ins
// in one request, the registration-storm fast path (one HTTP round trip
// and one registry lock acquisition per shard for the whole batch).
type BatchCheckInRequest struct {
	Devices []CheckInRequest `json:"devices"`
}

// BatchCheckInResponse is the POST /v1/checkin/batch reply: aggregate
// counts, not per-device echoes — devices learn their cohort and schemes
// on their first task request.
type BatchCheckInResponse struct {
	Accepted int `json:"accepted"`
	New      int `json:"new"`
	Eligible int `json:"eligible"`
	// RejectedIDs lists devices turned away by the device quota (they
	// were not registered and should retry after a sweep frees slots).
	RejectedIDs []int64 `json:"rejected_ids,omitempty"`
	Version     int     `json:"model_version"`
	RoundID     uint64  `json:"round_id"`
}

// MaxCheckInBatch bounds one batch check-in's device count; larger fleets
// split across requests. The matching body budget assumes a generous
// per-entry JSON size. The shard tier's gateway applies both before it
// splits a batch, so a tier answers an oversize batch as a server does.
const (
	MaxCheckInBatch     = 8192
	MaxCheckInBatchBody = 8 << 20
)

// maxCheckInBody bounds a /v1/checkin body; a canonical check-in is about
// 200 bytes.
const maxCheckInBody = 64 << 10

// CheckInResponse is the POST /v1/checkin reply.
type CheckInResponse struct {
	New      bool   `json:"new"`
	Eligible bool   `json:"eligible"`
	Version  int    `json:"model_version"`
	RoundID  uint64 `json:"round_id"`
	// Cohort plus the negotiated schemes tell the device how its bytes
	// will move (advisory — the task response repeats what matters).
	Cohort       string `json:"cohort,omitempty"`
	TaskScheme   string `json:"task_scheme,omitempty"`
	UpdateScheme string `json:"update_scheme,omitempty"`
}

// TaskResponse is the GET /v1/task reply (200 only; 204 means no task).
type TaskResponse struct {
	RoundID      uint64    `json:"round_id"`
	BaseVersion  int       `json:"base_version"`
	ModelKind    string    `json:"model_kind"`
	Dim          int       `json:"dim"`
	Params       []float64 `json:"params,omitempty"`
	LocalSteps   int       `json:"local_steps"`
	DeadlineMS   int64     `json:"deadline_unix_ms"`
	UpdateScheme string    `json:"update_scheme,omitempty"`
}

// UpdateRequest is the POST /v1/update body.
type UpdateRequest struct {
	DeviceID    int64     `json:"device_id"`
	RoundID     uint64    `json:"round_id"`
	BaseVersion int       `json:"base_version"`
	Weight      float64   `json:"weight"`
	Delta       []float64 `json:"delta"`
}

// UpdateResponse is the POST /v1/update reply.
type UpdateResponse struct {
	Accepted bool `json:"accepted"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Server adapts a Coordinator to the stdlib HTTP stack.
type Server struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewServer wraps the coordinator in its /v1 JSON API.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/checkin", s.handleCheckIn)
	s.mux.HandleFunc("POST /v1/checkin/batch", s.handleCheckInBatch)
	s.mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /v1/task", s.handleTask)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WriteJSON answers code with v as the JSON body: the one reply writer
// the coordinator, the tenant router and the tier gateway share.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers code with the body {"error": err}.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// writeReply writes an already encoded JSON reply, given in parts.
func writeReply(w http.ResponseWriter, code int, parts ...[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	for _, b := range parts {
		_, _ = w.Write(b)
	}
}

// tooLarge reports whether err is a body over its byte budget.
func tooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

func (s *Server) handleCheckIn(w http.ResponseWriter, r *http.Request) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	var req CheckInRequest
	if err := readCheckIn(w, r, buf, &req); err != nil {
		if tooLarge(err) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("check-in body exceeds %d-byte limit", maxCheckInBody))
			return
		}
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad check-in body: %w", err))
		return
	}
	res := s.c.CheckIn(s.deviceInfo(&req))
	if res.OverQuota {
		// The job's device quota is full: the device was not registered.
		// 429 + Retry-After is the contract — sweeps free slots as stale
		// devices age out, so later attempts can succeed.
		w.Header().Set("Retry-After", "60")
		WriteError(w, http.StatusTooManyRequests, fmt.Errorf("device quota full"))
		return
	}
	internString(req.AcceptSchemes)
	*buf = appendCheckInReply((*buf)[:0], &CheckInResponse{
		New:          res.New,
		Eligible:     res.Eligible,
		Version:      res.Version,
		RoundID:      res.RoundID,
		Cohort:       res.Cohort,
		TaskScheme:   res.Policy.Task.String(),
		UpdateScheme: res.Policy.Update.String(),
	})
	writeReply(w, http.StatusOK, *buf)
}

// deviceInfo converts a check-in wire record to the registry form,
// counting unknown advertised schemes (future clients may advertise
// schemes this server has never heard of; they degrade through
// negotiation, but the operator should be able to see it happening).
func (s *Server) deviceInfo(req *CheckInRequest) DeviceInfo {
	info := DeviceInfo{
		ID:          req.DeviceID,
		Model:       req.Model,
		Platform:    req.Platform,
		WiFi:        req.WiFi,
		BatteryHigh: req.BatteryHigh,
		ModernOS:    req.ModernOS,
		SessionSec:  req.SessionSec,
		Weight:      req.Weight,
	}
	if req.AcceptSchemes != "" {
		mask, unknown := transport.AcceptMask(req.AcceptSchemes)
		if unknown > 0 {
			s.c.counters.Counter("checkin_unknown_scheme").Add(int64(unknown))
		}
		info.Accept = acceptLists[mask]
	}
	return info
}

// ReadCheckInBatch reads a POST /v1/checkin/batch body into req under the
// batch limits, MaxCheckInBatchBody bytes and MaxCheckInBatch devices, and
// returns the status a server answers it with: 200, or the 400 or 413 that
// goes with err. The device limit holds before any device past it is
// decoded, so an oversize batch costs its body buffer and no more.
// req.Devices' backing array is reused.
func ReadCheckInBatch(w http.ResponseWriter, r *http.Request, req *BatchCheckInRequest) (int, error) {
	code, _, err := readCheckInBatch(w, r, req)
	return code, err
}

// readCheckInBatch is ReadCheckInBatch that also reports whether any
// decoded string is a fresh copy rather than the intern table's.
func readCheckInBatch(w http.ResponseWriter, r *http.Request, req *BatchCheckInRequest) (code int, fresh bool, err error) {
	buf := getWireBuf()
	defer putWireBuf(buf)
	if err := readBody(w, r, buf, MaxCheckInBatchBody); err != nil {
		if tooLarge(err) {
			return http.StatusRequestEntityTooLarge, false, fmt.Errorf("batch body exceeds %d-byte limit", MaxCheckInBatchBody)
		}
		return http.StatusBadRequest, false, fmt.Errorf("bad batch check-in body: %w", err)
	}
	s := scanner{b: *buf}
	if s.batch(req); s.bad {
		if n := batchCount(*buf); n > MaxCheckInBatch {
			return http.StatusRequestEntityTooLarge, false, fmt.Errorf("batch of %d devices exceeds %d-device limit", n, MaxCheckInBatch)
		}
		*req = BatchCheckInRequest{}
		if err := json.NewDecoder(bytes.NewReader(*buf)).Decode(req); err != nil {
			return http.StatusBadRequest, false, fmt.Errorf("bad batch check-in body: %w", err)
		}
		s.fresh = true
	}
	if len(req.Devices) == 0 {
		return http.StatusBadRequest, false, fmt.Errorf("empty device batch")
	}
	return http.StatusOK, s.fresh, nil
}

// batchScratch is one batch check-in's decoded body and its devices'
// registry form, recycled across requests. Arrays over maxPooledWire bytes
// are not kept, so a rare maximum-size batch does not pin them.
type batchScratch struct {
	req   BatchCheckInRequest
	infos []DeviceInfo
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

func putBatchScratch(sc *batchScratch) {
	devs := sc.req.Devices
	if cap(devs)*int(unsafe.Sizeof(CheckInRequest{}))+cap(sc.infos)*int(unsafe.Sizeof(DeviceInfo{})) > maxPooledWire {
		return
	}
	// Drop the strings so the pool pins none of them.
	clear(devs)
	clear(sc.infos)
	sc.req.Devices, sc.infos = devs[:0], sc.infos[:0]
	batchScratches.Put(sc)
}

func (s *Server) handleCheckInBatch(w http.ResponseWriter, r *http.Request) {
	sc := batchScratches.Get().(*batchScratch)
	defer putBatchScratch(sc)
	req := &sc.req
	code, fresh, err := readCheckInBatch(w, r, req)
	if err != nil {
		WriteError(w, code, err)
		return
	}
	for i := range req.Devices {
		info := s.deviceInfo(&req.Devices[i])
		info.interned = !fresh
		sc.infos = append(sc.infos, info)
	}
	res := s.c.CheckInBatch(sc.infos)
	if fresh && len(res.RejectedIDs) == 0 {
		// The registry interned model and platform as it admitted each
		// device; the capability lists it keeps as masks are interned
		// here, once the whole batch is in.
		for i := range req.Devices {
			internString(req.Devices[i].AcceptSchemes)
		}
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	*buf = appendBatchReply((*buf)[:0], &BatchCheckInResponse{
		Accepted:    res.Accepted,
		New:         res.New,
		Eligible:    res.Eligible,
		RejectedIDs: res.RejectedIDs,
		Version:     res.Version,
		RoundID:     res.RoundID,
	})
	writeReply(w, http.StatusOK, *buf)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id, err := deviceID(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.c.Heartbeat(id); err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	id, err := deviceID(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	q := TaskQuery{Binary: strings.Contains(r.Header.Get("Accept"), transport.ContentTypeTensor)}
	if q.Binary {
		// The device names the version it already holds; a parse
		// failure just means no delta, never a failed task.
		if h := r.Header.Get(transport.HeaderBaseVersion); h != "" {
			if base, err := strconv.Atoi(h); err == nil && base > 0 {
				q.BaseVersion = base
			}
		}
		if h := r.Header.Get(transport.HeaderAcceptSchemes); h != "" {
			mask, unknown := transport.AcceptMask(h)
			if unknown > 0 {
				s.c.counters.Counter("task_unknown_scheme").Add(int64(unknown))
			}
			q.Accept = acceptLists[mask]
		}
	}
	t, err := s.c.RequestTaskWith(id, q)
	switch {
	case errors.Is(err, ErrNoTask):
		w.WriteHeader(http.StatusNoContent)
		return
	case errors.Is(err, ErrUnknownDevice):
		WriteError(w, http.StatusNotFound, err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if q.Binary {
		// Binary path: metadata in headers, body is the cached codec
		// blob verbatim — zero per-request encoding.
		h := w.Header()
		h.Set("Content-Type", transport.ContentTypeTensor)
		h.Set(transport.HeaderRound, strconv.FormatUint(t.RoundID, 10))
		h.Set(transport.HeaderBaseVersion, strconv.Itoa(t.BaseVersion))
		h.Set(transport.HeaderModelKind, string(t.ModelKind))
		h.Set(transport.HeaderDim, strconv.Itoa(t.Dim))
		h.Set(transport.HeaderLocalSteps, strconv.Itoa(t.LocalSteps))
		h.Set(transport.HeaderDeadlineMS, strconv.FormatInt(t.Deadline.UnixMilli(), 10))
		h.Set(transport.HeaderUpdateScheme, t.UpdateScheme.String())
		h.Set(transport.HeaderCohort, t.Cohort)
		if t.DeltaBase > 0 {
			h.Set(transport.HeaderDelta, strconv.Itoa(t.DeltaBase))
			s.c.counters.Counter("task_sent_delta").Inc()
			s.c.counters.Counter("broadcast_bytes_delta").Add(int64(len(t.EncodedParams)))
		} else {
			s.c.counters.Counter("broadcast_bytes_full").Add(int64(len(t.EncodedParams)))
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(t.EncodedParams)
		s.c.counters.Counter("task_sent_binary").Inc()
		return
	}
	s.c.counters.Counter("task_sent_json").Inc()
	// Marshaling fails only on a non-finite value, which the commit screen
	// keeps out of every published snapshot; keep the handler alive.
	params, _ := t.plane.paramsJSON()
	s.c.counters.Counter("broadcast_bytes_full").Add(int64(len(params)))
	buf := getWireBuf()
	defer putWireBuf(buf)
	b, at := appendTaskReply((*buf)[:0], &t, len(params) > 0)
	*buf = b
	writeReply(w, http.StatusOK, b[:at], params, b[at:])
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	// The body transfer is the scheduling plane's uplink probe: count the
	// bytes actually read and time the read (decode compute rides along,
	// but real transfers are network-dominated and the EWMA absorbs the
	// skew).
	counter := &countingReadCloser{rc: r.Body}
	r.Body = counter
	t0 := time.Now()
	var sub Submission
	if strings.HasPrefix(r.Header.Get("Content-Type"), transport.ContentTypeTensor) {
		parsed, err := s.binarySubmission(w, r)
		if errors.Is(err, errBodyTooLarge) {
			s.c.counters.Counter("update_rejected_oversize").Inc()
			WriteError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		sub = parsed
		s.c.counters.Counter("update_recv_binary").Inc()
	} else {
		// The body is read under the same budget: a read past it is an
		// oversize body, not a syntax error.
		var req UpdateRequest
		buf := getWireBuf()
		err := readUpdate(w, r, buf, &req)
		putWireBuf(buf)
		if err != nil {
			if tooLarge(err) {
				s.c.counters.Counter("update_rejected_oversize").Inc()
				WriteError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge)
				return
			}
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad update body: %w", err))
			return
		}
		sub = Submission{
			DeviceID:    req.DeviceID,
			RoundID:     req.RoundID,
			BaseVersion: req.BaseVersion,
			Weight:      req.Weight,
			Delta:       tensor.Vector(req.Delta),
		}
		s.c.counters.Counter("update_recv_json").Inc()
	}
	// A well-formed body is a telemetry observation whether or not the
	// round accepts the update — the transfer happened either way.
	s.observeUpdate(r, sub.DeviceID, int(counter.n), time.Since(t0))
	err := s.c.SubmitUpdate(sub)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeReply(w, http.StatusAccepted, acceptedReply)
}

// binarySubmission parses a binary /v1/update: metadata from X-Flint-*
// headers, the delta read from the body as a stream — the 16-byte codec
// header is read and validated (scheme, declared dimension against the
// model) before the payload is pulled into a pooled buffer of exactly
// the payload size, so the server never holds more than one in-flight
// body copy per device and an oversize or wrong-shaped body dies before
// it is buffered. The payload is NOT decoded here: it rides the ingest
// queue in wire form and the pooled buffer returns to the codec pool
// when its round goes terminal.
func (s *Server) binarySubmission(w http.ResponseWriter, r *http.Request) (Submission, error) {
	id, err := strconv.ParseInt(r.Header.Get(transport.HeaderDevice), 10, 64)
	if err != nil {
		return Submission{}, fmt.Errorf("bad %s header: %w", transport.HeaderDevice, err)
	}
	round, err := strconv.ParseUint(r.Header.Get(transport.HeaderRound), 10, 64)
	if err != nil {
		return Submission{}, fmt.Errorf("bad %s header: %w", transport.HeaderRound, err)
	}
	base, err := strconv.Atoi(r.Header.Get(transport.HeaderBaseVersion))
	if err != nil {
		return Submission{}, fmt.Errorf("bad %s header: %w", transport.HeaderBaseVersion, err)
	}
	weight := 0.0
	if h := r.Header.Get(transport.HeaderWeight); h != "" {
		if weight, err = strconv.ParseFloat(h, 64); err != nil {
			return Submission{}, fmt.Errorf("bad %s header: %w", transport.HeaderWeight, err)
		}
	}
	// A declared oversize body is refused before a single byte is read;
	// an undeclared (chunked) one dies at the MaxBytesReader budget
	// mid-stream. Either way nothing near maxUpdateBody is ever buffered.
	// The budget carries one slack byte so the trailing-byte probe below
	// can tell an exactly-at-limit clean frame (EOF) from a body that
	// extends past the limit (MaxBytesError) — a validated frame's size
	// is bounded by the model dim, far under the limit, so the slack is
	// never spendable on payload.
	if r.ContentLength > maxUpdateBody {
		return Submission{}, errBodyTooLarge
	}
	body := http.MaxBytesReader(w, r.Body, maxUpdateBody+1)
	// The update stays in wire form: header-validated, CRC-checked, and
	// handed to the commit pipeline as a pooled payload view the fused
	// kernels aggregate from directly — the zero-copy half of the ingest
	// path (no per-update make([]float64, dim) here at all).
	payload, err := codec.DecodePayloadFrom(body, s.c.dim)
	if err != nil {
		if tooLarge(err) {
			return Submission{}, errBodyTooLarge
		}
		return Submission{}, fmt.Errorf("bad tensor body: %w", err)
	}
	// Exactly one frame per update: trailing bytes mean a confused (or
	// hostile) client, not extra tolerance.
	var trail [1]byte
	n, rerr := body.Read(trail[:])
	switch {
	case tooLarge(rerr):
		payload.Release()
		return Submission{}, errBodyTooLarge
	case n != 0:
		payload.Release()
		return Submission{}, fmt.Errorf("bad tensor body: trailing bytes after frame")
	}
	return Submission{
		DeviceID:    id,
		RoundID:     round,
		BaseVersion: base,
		Weight:      weight,
		Payload:     payload,
	}, nil
}

// countingReadCloser counts the bytes read through a request body — the
// uplink half of the scheduling plane's telemetry.
type countingReadCloser struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReadCloser) Close() error { return c.rc.Close() }

// maxReportedMS bounds the device-reported timing headers (one hour):
// these values are client-controlled, and an absurd duration would park
// a device's task-time EWMA so high no probe could ever rehabilitate it
// within a test's or operator's patience.
const maxReportedMS = 3_600_000

// observeUpdate folds one update's serving telemetry into the device's
// EWMAs: the server-measured uplink transfer plus the optional
// device-reported download and training timings. Reported values are
// client-controlled, so they pass the same kind of plausibility screen
// every other ingress gets: byte counts beyond the body budget and
// durations beyond an hour are dropped (the telemetry layer additionally
// caps the implied throughput of each observation).
func (s *Server) observeUpdate(r *http.Request, id int64, upBytes int, upDur time.Duration) {
	o := TelemetryObservation{UpBytes: upBytes, UpDur: upDur}
	// Under virtual-time load the wall-clock body transfer is loopback
	// noise; the device's own virtual-clock uplink report is the real
	// signal. Honored only when the scheduler runs compressed time — on a
	// production clock (compression 1) a client-controlled uplink claim
	// could whitewash a slow link, so the server's measurement stands.
	if s.c.Scheduler().Config().TimeCompression > 1 {
		if b, err := strconv.Atoi(r.Header.Get(transport.HeaderUpBytes)); err == nil && b > 0 && b <= maxUpdateBody {
			if ms, err := strconv.ParseFloat(r.Header.Get(transport.HeaderUpMS), 64); err == nil && ms > 0 && ms <= maxReportedMS {
				o.UpBytes = b
				o.UpDur = time.Duration(ms * float64(time.Millisecond))
			}
		}
	}
	if b, err := strconv.Atoi(r.Header.Get(transport.HeaderDownBytes)); err == nil && b > 0 && b <= maxUpdateBody {
		if ms, err := strconv.ParseFloat(r.Header.Get(transport.HeaderDownMS), 64); err == nil && ms > 0 && ms <= maxReportedMS {
			o.DownBytes = b
			o.DownDur = time.Duration(ms * float64(time.Millisecond))
		}
	}
	if ms, err := strconv.ParseFloat(r.Header.Get(transport.HeaderTrainMS), 64); err == nil && ms > 0 && ms <= maxReportedMS {
		o.Train = time.Duration(ms * float64(time.Millisecond))
	}
	s.c.ObserveTelemetry(id, o)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.c.Status())
}

func deviceID(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("device")
	if raw == "" {
		return 0, fmt.Errorf("missing device parameter")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad device id %q: %w", raw, err)
	}
	return id, nil
}
