package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/transport"
)

// maxPartialBody bounds a /shard/v1/partial read: a raw64 partial of
// the largest zoo model is ~7.4 MB, far under this.
const maxPartialBody = 64 << 20

// partialPresize caps the buffer a declared Content-Length reserves before
// a byte of the body has arrived: enough for the largest zoo model's
// partial in one piece, and all a bare header can cost the gateway, whose
// partial endpoint takes requests from anyone who can reach it.
const partialPresize = 8 << 20

// readSized reads r to the end into one buffer sized from the body's
// declared Content-Length. io.ReadAll grows from 512 bytes, which for a
// 1.5 MB partial is ~5× the body in transient garbage per read. The length
// is a sizing hint only — at most partialPresize is taken on its word, a
// body shorter or longer than declared still reads whole (growing as the
// bytes come), and an unknown length (≤ 0) grows as ReadAll does.
func readSized(r io.Reader, contentLength int64) ([]byte, error) {
	var buf bytes.Buffer
	if contentLength > 0 {
		// MinRead of slack lets ReadFrom see EOF without regrowing.
		buf.Grow(int(min(contentLength, partialPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// maxRoutedJSONBody bounds how much of a JSON /v1 body the gateway will
// buffer to find the device id. Matches the coordinator's own update
// budget, so the gateway never rejects a body a shard would accept.
const maxRoutedJSONBody = 64 << 20

// GatewayConfig parameterizes the tier gateway.
type GatewayConfig struct {
	// Shards lists the replica base URLs; a URL's index is its shard id
	// on the ring and the tier exchange.
	Shards []string
	// Leader is the tier's round leader, hosted in the gateway process
	// so the exchange and the halt gate share one membership view.
	Leader *Leader
	// DefaultJob names the job whose tier version the rollup reports as
	// its top-level "version" — the field single-job clients (and the
	// fleet generator's round watcher) poll for progress.
	DefaultJob string
}

// gatewayCounters pre-register the routing plane's counter shape.
var gatewayCounters = []string{
	"route_by_device", "route_default", "route_rejected",
	"halt_rejected_tasks", "proxy_errors", "rollup_requests",
	"partials_proxied", "checkin_batch_split",
}

// haltRetryAfter renders a 503 halt response's Retry-After with ±25%
// jitter around base seconds, as a fractional-seconds decimal ("0.87").
// A fixed "1" would march every halted client back in one synchronized
// thundering herd the instant the tier recovers; jittering at the source
// spreads the retry wave without trusting every client to implement its
// own backoff. Integer rounding at a 1-second base would erase the
// jitter entirely, hence the decimal — strictly, delay-seconds is an
// integer field, but clients that parse it at all accept floats, and
// rounding ones still collapse to at most two retry cohorts.
func haltRetryAfter(base float64) string {
	return strconv.FormatFloat(base*(0.75+0.5*rand.Float64()), 'f', 2, 64)
}

// Gateway is the tier's front door: one HTTP handler that routes the
// public /v1 device API to shard replicas by consistent-hashed device
// id over pooled keep-alive connections, hosts the leader's private
// /shard/v1 exchange, enforces the §3.4 halt on task assignment, and
// rolls every shard's /v1/status up into one tier view.
type Gateway struct {
	ring     *Ring
	shards   []string
	leader   *Leader
	job      string
	client   *http.Client
	counters *metrics.CounterSet
}

// NewGateway builds the tier gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: gateway needs at least one shard URL")
	}
	if cfg.Leader == nil {
		return nil, fmt.Errorf("shard: gateway needs a leader")
	}
	ring, err := NewRing(len(cfg.Shards))
	if err != nil {
		return nil, err
	}
	shards := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		for len(s) > 0 && s[len(s)-1] == '/' {
			s = s[:len(s)-1]
		}
		if s == "" {
			return nil, fmt.Errorf("shard: empty URL for shard %d", i)
		}
		shards[i] = s
	}
	g := &Gateway{
		ring:   ring,
		shards: shards,
		leader: cfg.Leader,
		job:    cfg.DefaultJob,
		client: &http.Client{
			// No client timeout: /v1/task long-polls ride through; the
			// transport's pooled keep-alive connections are the point.
			Transport: &http.Transport{
				MaxIdleConns:        4 * len(shards),
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		counters: metrics.NewCounterSet(),
	}
	for _, name := range gatewayCounters {
		g.counters.Counter(name)
	}
	return g, nil
}

// Ring exposes the gateway's routing ring (tests and tooling).
func (g *Gateway) Ring() *Ring { return g.ring }

// Counters exposes the routing plane's counter set.
func (g *Gateway) Counters() *metrics.CounterSet { return g.counters }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case pathPartial:
		g.handlePartial(w, r)
	case pathPing:
		g.handlePing(w, r)
	case pathTier:
		writeJSON(w, http.StatusOK, g.leader.Status())
	case "/v1/status":
		g.handleRollup(w, r)
	default:
		g.route(w, r)
	}
}

// op extracts the coordinator verb a /v1 path addresses, looking
// through the tenant prefix: /v1/task and /v1/jobs/<job>/task are both
// "task". Non-/v1 paths return "".
func op(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return ""
	}
	if sub, ok := strings.CutPrefix(rest, "jobs/"); ok {
		if _, after, ok := strings.Cut(sub, "/"); ok {
			rest = after
		} else {
			// /v1/jobs or /v1/jobs/<job> — job-plane metadata, no verb.
			return "jobs"
		}
	}
	verb, _, _ := strings.Cut(rest, "/")
	return verb
}

// route forwards one device-API request to its owning shard. The verb
// decides where the device id lives: task/heartbeat carry it in the
// query string, a binary update in the X-Flint-Device header (that body
// streams through unbuffered — the hot ingest path stays zero-copy
// through the gateway), and JSON check-ins/updates in the body, which
// is buffered once to read the id and replayed to the shard.
// Requests with no device id (job-plane metadata) go to shard 0 — any
// replica can answer them.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request) {
	verb := op(r.URL.Path)
	if verb == "" {
		g.counters.Counter("route_rejected").Inc()
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
		return
	}
	if verb == "checkin" && strings.HasSuffix(r.URL.Path, "/checkin/batch") {
		// A batch check-in carries devices for many ring positions in one
		// body; it must be split per owning shard, not routed whole.
		g.routeCheckInBatch(w, r)
		return
	}
	var (
		body   io.Reader = r.Body
		length           = r.ContentLength
		device int64
		routed = true
		err    error
	)
	switch verb {
	case "task", "heartbeat":
		if verb == "task" && !g.leader.Healthy() {
			// §3.4 horizontally: a lost shard halts assignment tier-wide.
			// Devices keep their check-in/heartbeat liveness and updates
			// already in flight still land; only new work stops until
			// membership recovers.
			g.counters.Counter("halt_rejected_tasks").Inc()
			w.Header().Set("Retry-After", haltRetryAfter(1))
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shard tier halted (membership unhealthy)"))
			return
		}
		device, err = strconv.ParseInt(r.URL.Query().Get("device"), 10, 64)
		if err != nil {
			err = fmt.Errorf("bad device parameter: %w", err)
		}
	case "update":
		if strings.HasPrefix(r.Header.Get("Content-Type"), transport.ContentTypeTensor) {
			device, err = strconv.ParseInt(r.Header.Get(transport.HeaderDevice), 10, 64)
			if err != nil {
				err = fmt.Errorf("bad X-Flint-Device header: %w", err)
			}
			break
		}
		device, body, length, err = bufferDeviceJSON(w, r)
	case "checkin":
		device, body, length, err = bufferDeviceJSON(w, r)
	default:
		routed = false
	}
	if err != nil {
		g.counters.Counter("route_rejected").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	shard := 0
	if routed {
		shard = g.ring.Shard(device)
		g.counters.Counter("route_by_device").Inc()
	} else {
		g.counters.Counter("route_default").Inc()
	}
	g.proxy(w, r, shard, body, length)
}

// routeCheckInBatch splits one batched check-in across the ring: the
// body is decoded once, its devices partitioned by consistent-hashed
// owner, and per-shard sub-batches forwarded concurrently with the
// request's headers (the job token rides along), so a registration storm
// keeps the batch path's per-shard lock amortization end to end instead
// of collapsing to one mis-routed shard. The gateway applies the server's
// own batch limits first, so a tier answers an empty or oversize batch as
// a flat server does. The merged reply sums the per-shard counts. One
// failing shard fails the whole batch, and the lowest-numbered failing
// shard decides the answer: a non-2xx status is relayed with its body, a
// shard that cannot be reached is a 502 (check-ins are idempotent, so the
// load plane just retries the batch).
func (g *Gateway) routeCheckInBatch(w http.ResponseWriter, r *http.Request) {
	req, status, err := readBatch(w, r)
	if err != nil {
		g.counters.Counter("route_rejected").Inc()
		writeError(w, status, err)
		return
	}
	parts := make([][]coord.CheckInRequest, len(g.shards))
	for _, d := range req.Devices {
		si := g.ring.Shard(d.DeviceID)
		parts[si] = append(parts[si], d)
	}
	g.counters.Counter("checkin_batch_split").Inc()
	replies := make([]batchReply, len(g.shards))
	var wg sync.WaitGroup
	for si, devs := range parts {
		if len(devs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[si] = g.forwardBatch(r, si, devs)
		}()
	}
	wg.Wait()
	var merged coord.BatchCheckInResponse
	for si, rep := range replies {
		switch {
		case rep.err != nil:
			if r.Context().Err() == nil { // not a proxy error when the client hung up (see proxy)
				g.counters.Counter("proxy_errors").Inc()
			}
			writeError(w, http.StatusBadGateway, fmt.Errorf("batch check-in: shard %d: %w", si, rep.err))
			return
		case rep.status != 0:
			for k, vs := range rep.header {
				if k != "Content-Length" {
					w.Header()[k] = vs
				}
			}
			w.WriteHeader(rep.status)
			w.Write(rep.body)
			return
		}
		sr := rep.reply
		merged.Accepted += sr.Accepted
		merged.New += sr.New
		merged.Eligible += sr.Eligible
		merged.RejectedIDs = append(merged.RejectedIDs, sr.RejectedIDs...)
		// Shards publish independent version sequences; report the tier's
		// furthest-along pair, which is all the advisory field promises
		// here.
		merged.Version = max(merged.Version, sr.Version)
		merged.RoundID = max(merged.RoundID, sr.RoundID)
	}
	g.counters.Counter("route_by_device").Inc()
	writeJSON(w, http.StatusOK, merged)
}

// readBatch reads a batch check-in body under the server's limits,
// returning the status a server would answer with when it breaks one.
func readBatch(w http.ResponseWriter, r *http.Request) (coord.BatchCheckInRequest, int, error) {
	var req coord.BatchCheckInRequest
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, coord.MaxCheckInBatchBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return req, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch body exceeds %d-byte limit", coord.MaxCheckInBatchBody)
	}
	if err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err)
	}
	if len(req.Devices) == 0 {
		return req, http.StatusBadRequest, fmt.Errorf("empty device batch")
	}
	if len(req.Devices) > coord.MaxCheckInBatch {
		return req, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d devices exceeds %d-device limit", len(req.Devices), coord.MaxCheckInBatch)
	}
	return req, http.StatusOK, nil
}

// batchReply is one shard's answer to its sub-batch: the decoded reply,
// a non-2xx status to relay with its headers and body, or a transport
// failure.
type batchReply struct {
	reply  coord.BatchCheckInResponse
	status int
	header http.Header
	body   []byte
	err    error
}

// forwardBatch posts one shard's sub-batch with the client request's
// headers.
func (g *Gateway) forwardBatch(r *http.Request, si int, devs []coord.CheckInRequest) batchReply {
	body, err := json.Marshal(coord.BatchCheckInRequest{Devices: devs})
	if err != nil {
		return batchReply{err: err}
	}
	sub, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		g.shards[si]+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return batchReply{err: err}
	}
	sub.Header = r.Header.Clone()
	sub.Header.Del("Connection")
	sub.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(sub)
	if err != nil {
		return batchReply{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// A server's error body is one short JSON line.
		msg, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return batchReply{status: resp.StatusCode, header: resp.Header, body: msg, err: err}
	}
	var rep batchReply
	rep.err = json.NewDecoder(resp.Body).Decode(&rep.reply)
	return rep
}

// bufferDeviceJSON reads a JSON body once, extracts its device_id, and
// hands the buffered bytes back for the proxied request.
func bufferDeviceJSON(w http.ResponseWriter, r *http.Request) (int64, io.Reader, int64, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRoutedJSONBody))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("read body: %w", err)
	}
	var req struct {
		DeviceID int64 `json:"device_id"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return 0, nil, 0, fmt.Errorf("bad JSON body: %w", err)
	}
	return req.DeviceID, bytes.NewReader(raw), int64(len(raw)), nil
}

// relayBufSize is the chunk the gateway relays a shard's response body
// in: a model-B f32 task body (~760 KB) moves in three reads and writes
// instead of io.Copy's 32 KiB twenty-four.
const relayBufSize = 256 << 10

var relayBufs = sync.Pool{New: func() any { b := make([]byte, relayBufSize); return &b }}

// writerOnly hides the ResponseWriter's ReadFrom: io.CopyBuffer would
// otherwise hand the copy to http.response.ReadFrom, which ignores the
// caller's buffer for its own 32 KiB one.
type writerOnly struct{ io.Writer }

// proxy forwards the request to a shard over the pooled client and
// streams the response back verbatim through one pooled relay buffer.
// proxy_errors counts the exchanges with the shard that fail, including
// a body that dies mid-relay (the shard aborts, the connection drops),
// whose client response is then aborted rather than ended as if
// complete. A client that hung up cancels the shard request with it;
// that is not a proxy error.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, shard int, body io.Reader, length int64) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, g.shards[shard]+r.URL.RequestURI(), body)
	if err != nil {
		g.counters.Counter("proxy_errors").Inc()
		writeError(w, http.StatusBadGateway, err)
		return
	}
	out.Header = r.Header.Clone()
	out.Header.Del("Connection")
	out.ContentLength = length
	resp, err := g.client.Do(out)
	if err != nil {
		if r.Context().Err() == nil {
			g.counters.Counter("proxy_errors").Inc()
		}
		writeError(w, http.StatusBadGateway, fmt.Errorf("shard %d: %w", shard, err))
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[]byte)
	_, err = io.CopyBuffer(writerOnly{w}, resp.Body, *buf)
	relayBufs.Put(buf)
	if err != nil && r.Context().Err() == nil {
		g.counters.Counter("proxy_errors").Inc()
		panic(http.ErrAbortHandler)
	}
}

// handlePartial is the server side of the exchange's partial verb: it
// unpacks the X-Flint metadata, hands the blob to the leader, and maps
// the verdict back onto the wire (503 = halted, body = install blob).
func (g *Gateway) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("want POST"))
		return
	}
	pc := coord.PartialCommit{Job: r.Header.Get(hdrJob)}
	var err error
	if pc.ShardID, err = strconv.Atoi(r.Header.Get(hdrShard)); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", hdrShard, err))
		return
	}
	if pc.Round, err = strconv.ParseUint(r.Header.Get(hdrRound), 10, 64); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", hdrRound, err))
		return
	}
	if pc.BaseVersion, err = strconv.Atoi(r.Header.Get(hdrBase)); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", hdrBase, err))
		return
	}
	if pc.Updates, err = strconv.Atoi(r.Header.Get(hdrUpdates)); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", hdrUpdates, err))
		return
	}
	if pc.Weight, err = strconv.ParseFloat(r.Header.Get(hdrWeight), 64); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", hdrWeight, err))
		return
	}
	if pc.Blob, err = readSized(http.MaxBytesReader(w, r.Body, maxPartialBody), r.ContentLength); err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	inst, err := g.leader.SubmitPartial(pc)
	if err == coord.ErrTierHalted {
		w.Header().Set("Retry-After", haltRetryAfter(1))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g.counters.Counter("partials_proxied").Inc()
	w.Header().Set(hdrVersion, strconv.Itoa(inst.Version))
	w.Header().Set("Content-Type", transport.ContentTypeTensor)
	w.Header().Set("Content-Length", strconv.Itoa(len(inst.Blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(inst.Blob)
}

// handlePing is the server side of the heartbeat verb.
func (g *Gateway) handlePing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("want POST"))
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad shard parameter: %w", err))
		return
	}
	if err := g.leader.Ping(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// ShardStatus is one replica's row in the gateway rollup: its URL,
// whether its status probe succeeded, and the raw status document when
// it did.
type ShardStatus struct {
	Index  int             `json:"index"`
	URL    string          `json:"url"`
	OK     bool            `json:"ok"`
	Error  string          `json:"error,omitempty"`
	Status json.RawMessage `json:"status,omitempty"`
}

// Rollup is the gateway's /v1/status payload: the tier's authoritative
// global version at the top level (so single-job pollers and the fleet
// generator's round watcher keep reading "version" unchanged), the
// leader's membership/exchange view, the routing counters, and every
// shard's own status document.
type Rollup struct {
	Version int              `json:"version"`
	Tier    TierStatus       `json:"tier"`
	Gateway map[string]int64 `json:"gateway_counters"`
	Shards  []ShardStatus    `json:"shards"`
}

// handleRollup fans a status probe out to every shard concurrently and
// folds the responses into one tier document. The rollup itself always
// answers 200 — a dead shard shows up as ok=false in its row and as
// healthy=false in the tier section, which is the signal operators and
// the smoke drill actually look for.
func (g *Gateway) handleRollup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("want GET"))
		return
	}
	g.counters.Counter("rollup_requests").Inc()
	rows := make([]ShardStatus, len(g.shards))
	var wg sync.WaitGroup
	for i, base := range g.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			rows[i] = ShardStatus{Index: i, URL: base}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+"/v1/status", nil)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
			if err != nil || resp.StatusCode != http.StatusOK {
				rows[i].Error = fmt.Sprintf("status %s", resp.Status)
				return
			}
			rows[i].OK = true
			rows[i].Status = raw
		}(i, base)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, Rollup{
		Version: g.leader.Version(g.job),
		Tier:    g.leader.Status(),
		Gateway: g.counters.Snapshot(),
		Shards:  rows,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
