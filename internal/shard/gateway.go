package shard

import (
	"bytes"
	"context"
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
	"flint/internal/tenant"
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
	// so the exchange and the halt gate share one membership view. Its
	// width must be len(Shards).
	Leader *Leader
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
// folds every shard's /v1/status into one tier document.
type Gateway struct {
	ring     *Ring
	shards   []string
	leader   *Leader
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
	if n := cfg.Leader.cfg.Shards; n != len(cfg.Shards) {
		return nil, fmt.Errorf("shard: gateway has %d shard URLs, its leader a tier of %d", len(cfg.Shards), n)
	}
	ring, err := NewRing(len(cfg.Shards))
	if err != nil {
		return nil, err
	}
	shards := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s = strings.TrimRight(s, "/"); s == "" {
			return nil, fmt.Errorf("shard: empty URL for shard %d", i)
		}
		shards[i] = s
	}
	g := &Gateway{
		ring:   ring,
		shards: shards,
		leader: cfg.Leader,
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
	case "/v1/status":
		g.handleStatus(w, r)
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
		coord.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown path %q", r.URL.Path))
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
			coord.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("shard tier halted (membership unhealthy)"))
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
		coord.WriteError(w, http.StatusBadRequest, err)
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
	var req coord.BatchCheckInRequest
	if status, err := coord.ReadCheckInBatch(w, r, &req); err != nil {
		g.counters.Counter("route_rejected").Inc()
		coord.WriteError(w, status, err)
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
			coord.WriteError(w, http.StatusBadGateway, fmt.Errorf("batch check-in: shard %d: %w", si, rep.err))
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
	coord.WriteJSON(w, http.StatusOK, merged)
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
		coord.WriteError(w, http.StatusBadGateway, err)
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
		coord.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %d: %w", shard, err))
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
// the verdict back onto the wire (503 = halted, 409 = send it again,
// body = install blob). A held partial is handed over again, which waits
// for the fold, so every 200 is an install.
func (g *Gateway) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		coord.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("want POST"))
		return
	}
	pc := coord.PartialCommit{Job: r.Header.Get(hdrJob)}
	var errs [5]error
	pc.ShardID, errs[0] = strconv.Atoi(r.Header.Get(hdrShard))
	pc.Round, errs[1] = strconv.ParseUint(r.Header.Get(hdrRound), 10, 64)
	pc.BaseVersion, errs[2] = strconv.Atoi(r.Header.Get(hdrBase))
	pc.Updates, errs[3] = strconv.Atoi(r.Header.Get(hdrUpdates))
	pc.Weight, errs[4] = strconv.ParseFloat(r.Header.Get(hdrWeight), 64)
	err := errors.Join(errs[:]...)
	if err != nil {
		coord.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad X-Flint partial headers: %w", err))
		return
	}
	if pc.Blob, err = readSized(http.MaxBytesReader(w, r.Body, maxPartialBody), r.ContentLength); err != nil {
		coord.WriteError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	inst, err := g.leader.SubmitPartial(pc)
	if err == nil && len(inst.Blob) == 0 { // held: the repeat waits for the fold
		inst, err = g.leader.SubmitPartial(pc)
	}
	switch {
	case err == coord.ErrTierHalted:
		w.Header().Set("Retry-After", haltRetryAfter(1))
		coord.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err == errRetry:
		coord.WriteError(w, http.StatusConflict, err)
		return
	case err != nil:
		coord.WriteError(w, http.StatusBadRequest, err)
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
		coord.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("want POST"))
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		coord.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad shard parameter: %w", err))
		return
	}
	if err := g.leader.Ping(id); err != nil {
		coord.WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handleStatus answers /v1/status with the tenant server's document
// folded over the shards, which it reads concurrently, each read bounded
// by the leader's heartbeat grace so that one stalled shard cannot stall
// the tier's status. Rows fold the way the tenant server folds jobs: a
// job's counts and the fleet sums add up over the shards (a tier's
// rounds_committed counts shard rounds), its version is the leader's,
// and its other fields come from the first shard that answered. The
// tier section adds the leader's and the gateway's state and a row per
// shard. The answer is always 200: a dead shard is an ok=false row, and
// healthy=false once its heartbeat lapses.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		coord.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("want GET"))
		return
	}
	g.counters.Counter("rollup_requests").Inc()
	tier := g.leader.tierStatus()
	reps := make([]*tenant.StatusReport, len(g.shards))
	ctx, cancel := context.WithTimeout(r.Context(), g.leader.cfg.Grace)
	defer cancel()
	var wg sync.WaitGroup
	for i := range g.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := &tier.ShardRows[i]
			row.URL = g.shards[i]
			rep, err := g.shardStatus(ctx, i)
			if err != nil {
				row.Error = err.Error()
				return
			}
			reps[i], row.OK = rep, true
			row.Versions = make(map[string]int, len(rep.Jobs))
			for name, js := range rep.Jobs {
				row.Versions[name] = js.Version
			}
		}()
	}
	wg.Wait()
	out := tenant.StatusReport{Jobs: make(map[string]tenant.JobStatus), Tier: &tier}
	var counters []map[string]int64
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		if out.DefaultJob == "" {
			out.DefaultJob = rep.DefaultJob
		}
		for name, js := range rep.Jobs {
			if sum, ok := out.Jobs[name]; ok {
				sum.RoundsCommitted += js.RoundsCommitted
				sum.UpdatesAggregated += js.UpdatesAggregated
				sum.DevicesKnown += js.DevicesKnown
				sum.DevicesLive += js.DevicesLive
				sum.QuotaRejected += js.QuotaRejected
				sum.AuthRejected += js.AuthRejected
				js = sum
			} else {
				js.Version = g.leader.Version(name)
			}
			out.Jobs[name] = js
		}
		out.Fleet.DevicesKnown += rep.Fleet.DevicesKnown
		out.Fleet.DevicesLive += rep.Fleet.DevicesLive
		out.Fleet.RoundsCommitted += rep.Fleet.RoundsCommitted
		out.Fleet.UpdatesAggregated += rep.Fleet.UpdatesAggregated
		counters = append(counters, rep.Fleet.Counters)
	}
	out.Fleet.Jobs = len(out.Jobs)
	out.Fleet.Counters = metrics.Rollup(counters...)
	tier.Gateway = g.counters.Snapshot()
	coord.WriteJSON(w, http.StatusOK, out)
}

// shardStatus reads shard i's /v1/status document.
func (g *Gateway) shardStatus(ctx context.Context, i int) (*tenant.StatusReport, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.shards[i]+"/v1/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	rep := new(tenant.StatusReport)
	return rep, json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(rep)
}
