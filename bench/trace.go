package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/metrics"
)

// hdrTrace carries the client's trace id to the handler wrappers, so every
// span of one request shares it. The gateway clones request headers onto the
// proxied request, which carries the id through to the owning shard.
const hdrTrace = "X-Bench-Trace"

// Span layers, outermost first. A span's parent is the span of the same
// trace one layer up.
const (
	layerClient   = iota // client: request written → body fully read
	layerOuter           // outermost handler: tenant.Server, shard.Gateway or a flat coord.Server
	layerShard           // a shard's coord.Server behind the gateway
	layerExchange        // coord.PartialExchange decorator (no request trace id)
	numLayers
)

var layerNames = [numLayers]string{"client", "handler", "shard_handler", "exchange"}

// Operations a span can belong to.
const (
	opCheckin = iota
	opBatch
	opHeartbeat
	opTask
	opUpdate
	opProbe
	opPartial
	numOps
)

var opNames = [numOps]string{"checkin", "checkin_batch", "heartbeat", "task", "update", "probe", "partial"}

type span struct {
	trace      uint64
	layer, op  uint8
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) record(trace uint64, layer, op int, start, end time.Time) {
	s := span{trace: trace, layer: uint8(layer), op: uint8(op),
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opOfPath maps a /v1 request path (with or without the tenant prefix) to
// its operation.
func opOfPath(path string) int {
	switch {
	case strings.HasSuffix(path, "/checkin/batch"):
		return opBatch
	case strings.HasSuffix(path, "/checkin"):
		return opCheckin
	case strings.HasSuffix(path, "/heartbeat"):
		return opHeartbeat
	case strings.HasSuffix(path, "/task"):
		return opTask
	case strings.HasSuffix(path, "/update"):
		return opUpdate
	case strings.HasSuffix(path, "/partial"):
		return opPartial
	}
	return -1
}

// wrap returns h with a span recorded around every request that carries a
// trace id. With a nil tracer it returns h itself.
func (t *tracer) wrap(layer int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(hdrTrace)
		if id == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		trace, err := strconv.ParseUint(id, 10, 64)
		op := opOfPath(r.URL.Path)
		if err != nil || op < 0 {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.record(trace, layer, op, t0, time.Now())
	})
}

// spanStats is what a traced run derives from its spans.
type spanStats struct {
	// total[layer][op] and self[layer][op] are median span durations and
	// median self times (the span minus the part its child covers) in ns.
	total, self [numLayers][numOps]float64
	count       [numLayers][numOps]int
	// nestErrors counts child spans that do not lie within their parent, and
	// traces holding two spans of one layer.
	nestErrors int
}

// analyse groups the spans by trace id, checks that they nest, and computes
// per-layer totals and self times.
func (t *tracer) analyse() spanStats {
	var st spanStats
	if t == nil {
		return st
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].trace != spans[j].trace {
			return spans[i].trace < spans[j].trace
		}
		return spans[i].layer < spans[j].layer
	})
	var totals, selfs [numLayers][numOps][]float64
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].trace == spans[i].trace {
			j++
		}
		group := spans[i:j]
		i = j
		if group[0].trace == 0 {
			// Exchange spans have no request trace: each stands alone.
			for _, s := range group {
				d := float64(s.end - s.start)
				totals[s.layer][s.op] = append(totals[s.layer][s.op], d)
				selfs[s.layer][s.op] = append(selfs[s.layer][s.op], d)
			}
			continue
		}
		for k, s := range group {
			d := float64(s.end - s.start)
			self := d
			if k+1 < len(group) {
				child := group[k+1]
				if child.layer == s.layer || child.start < s.start || child.end > s.end {
					st.nestErrors++
				} else {
					self -= float64(child.end - child.start)
				}
			}
			totals[s.layer][s.op] = append(totals[s.layer][s.op], d)
			selfs[s.layer][s.op] = append(selfs[s.layer][s.op], self)
		}
	}
	for l := 0; l < numLayers; l++ {
		for o := 0; o < numOps; o++ {
			st.count[l][o] = len(totals[l][o])
			st.total[l][o] = metrics.MedianOf(totals[l][o])
			st.self[l][o] = metrics.MedianOf(selfs[l][o])
		}
	}
	return st
}

// writeTraceEvents writes at most limit spans as Chrome trace-event JSON
// (complete events; pid = layer, tid = trace id modulo 64).
func (t *tracer) writeTraceEvents(path string, limit int) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  uint64  `json:"tid"`
		Args struct {
			Trace uint64 `json:"trace"`
		} `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if len(spans) > limit {
		spans = spans[:limit]
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		e := event{Name: opNames[s.op], Cat: layerNames[s.layer], Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: int(s.layer), TID: s.trace % 64}
		e.Args.Trace = s.trace
		events[i] = e
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace events: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
