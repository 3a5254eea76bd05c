package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/model"
	"flint/internal/shard"
	"flint/internal/tensor"
)

// Frozen sizes of shard_tier.
const (
	tierShards   = 4
	tierTarget   = 16   // updates per shard round; 64 per tier generation
	tierDevices  = 4096 // registered through the gateway in one batch
	tierCohorts  = 2    // a shard's active devices return every this many generations
	tierWarmup   = 6    // generations
	tierHeapAt   = 64   // generations into the timed phase at which live_heap_mib is read
	tierSettle   = 2    // untimed generations whose leader globals the oracle keeps
	tierHBPeriod = time.Second
)

// tierEnv is the sharded workload: a gateway hosting the round leader, four
// coord shards each behind its own HTTP server and exchanging partials with
// the leader over HTTP, heartbeats on, and all device traffic through the
// gateway.
type tierEnv struct {
	cfg     runConfig
	leader  *shard.Leader
	gw      *shard.Gateway
	gwSrv   *httptest.Server
	shards  []*coord.Coordinator
	srvs    []*httptest.Server
	beats   []*shard.Heartbeat
	xstats  *exchangeStats
	clients []*tierClient
	blobs   [][]byte
	// byShard lists each shard's active devices (tierCohorts*tierTarget of
	// the ids the ring routes to it).
	byShard [tierShards][]*tierDevice

	gen        int // generations driven, warm-up included
	loop       roundLoop
	foldWaits  []lat
	pendingMax int64 // deepest write-behind backlog of any shard at a generation's end
	// globals keeps the leader's parameters per version for the last
	// generations driven (the settle phase fills it).
	globals map[int]tensor.Vector
}

type tierDevice struct {
	id      int64
	held    int // the shard-local version the device was last served
	checkin []byte
}

type tierClient struct {
	*client
	e *tierEnv
}

// exchangeStats is shared by the shards' exchange decorators: per generation
// the first and last partial's submit time (the fold barrier's wait).
type exchangeStats struct {
	mu          sync.Mutex
	first, last time.Time
}

func (s *exchangeStats) note(t time.Time) {
	s.mu.Lock()
	if s.first.IsZero() {
		s.first = t
	}
	s.last = t
	s.mu.Unlock()
}

// takeWait returns last-first of the generation just ended and resets.
func (s *exchangeStats) takeWait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.last.Sub(s.first)
	s.first, s.last = time.Time{}, time.Time{}
	return d
}

// tierExchange decorates a shard's exchange: a span around SubmitPartial in
// a traced run, and the shared generation statistics always.
type tierExchange struct {
	inner coord.PartialExchange
	t     *tracer
	stats *exchangeStats
}

func (x *tierExchange) SubmitPartial(pc coord.PartialCommit) (coord.GlobalInstall, error) {
	t0 := time.Now()
	x.stats.note(t0)
	inst, err := x.inner.SubmitPartial(pc)
	if x.t.enabled() {
		x.t.record(0, layerExchange, opPartial, t0, time.Now())
	}
	return inst, err
}

func tierParams(string) (tensor.Vector, error) {
	m, err := model.New(model.KindB, 1)
	if err != nil {
		return nil, err
	}
	return m.Params(), nil
}

func newTierEnv(cfg runConfig, t *tracer) (env, error) {
	e := &tierEnv{cfg: cfg, xstats: &exchangeStats{}, globals: map[int]tensor.Vector{}}
	var err error
	if e.leader, err = shard.NewLeader(shard.LeaderConfig{Shards: tierShards, Params: tierParams}); err != nil {
		return nil, err
	}
	if err = e.leader.EnsureJob(""); err != nil {
		return nil, err
	}
	// The gateway needs the shards' URLs and the shards need the gateway's,
	// so the gateway's listener starts first with its handler bound late.
	var handler atomic.Pointer[http.Handler]
	e.gwSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := handler.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "gateway not ready", http.StatusServiceUnavailable)
	}))
	urls := make([]string, tierShards)
	for s := 0; s < tierShards; s++ {
		co, err := coord.New(coord.Config{
			Mode:          coord.ModeSync,
			ModelKind:     model.KindB,
			Seed:          1,
			TargetUpdates: tierTarget,
			Quorum:        tierTarget,
			OverCommit:    1,
			Exchange:      &tierExchange{inner: shard.NewHTTPExchange(e.gwSrv.URL), t: t, stats: e.xstats},
			ShardID:       s,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, co)
		srv := httptest.NewServer(t.wrap(layerShard, coord.NewServer(co)))
		e.srvs = append(e.srvs, srv)
		urls[s] = srv.URL
	}
	if e.gw, err = shard.NewGateway(shard.GatewayConfig{Shards: urls, Leader: e.leader}); err != nil {
		e.close()
		return nil, err
	}
	h := t.wrap(layerOuter, e.gw)
	handler.Store(&h)
	for s := 0; s < tierShards; s++ {
		e.beats = append(e.beats, shard.StartHeartbeat(shard.NewHTTPExchange(e.gwSrv.URL), s, tierHBPeriod))
	}
	for deadline := time.Now().Add(10 * time.Second); !e.leader.Healthy(); {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("tier never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	params, err := tierParams("")
	if err == nil {
		e.blobs, err = newUpdatePool(cfg.Seed, roundBlobs, len(params), deltaScale, 0, codec.Q8)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		e.clients = append(e.clients, &tierClient{client: newClient(e.gwSrv.URL, t), e: e})
	}
	// One batch check-in registers the fleet; the gateway splits it by ring
	// owner. The first tierCohorts*tierTarget ids a shard owns are its active
	// devices.
	n := cfg.scaled(tierDevices, 1024)
	body := []byte(`{"devices":[`)
	for id := int64(1); id <= int64(n); id++ {
		d := device{id: id, model: deviceModels[int(id)%len(deviceModels)], platform: "Android",
			modernOS: true, weight: roundWeight, wifi: id%4 != 0, batteryHigh: true, sessionSec: 600}
		if id > 1 {
			body = append(body, ',')
		}
		mark := len(body)
		body = appendCheckin(body, &d)
		if s := e.gw.Ring().Shard(id); len(e.byShard[s]) < tierCohorts*tierTarget {
			e.byShard[s] = append(e.byShard[s], &tierDevice{id: id, checkin: append([]byte(nil), body[mark:]...)})
		}
	}
	body = append(body, "]}"...)
	c := e.clients[0]
	r, err := c.do(opBatch, http.MethodPost, "/v1/checkin/batch", body, "Content-Type", "application/json")
	if err == nil && !c.expect(r, http.StatusOK) {
		err = fmt.Errorf("fleet check-in: status %d: %s", r.status, r.body)
	}
	for s := range e.byShard {
		if err == nil && len(e.byShard[s]) < tierCohorts*tierTarget {
			err = fmt.Errorf("shard %d owns only %d of %d devices", s, len(e.byShard[s]), n)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	c.reset()
	return e, nil
}

// runGeneration drives this client's shards (its index and index+2) through
// one round each: 16 devices check in, fetch the task and upload.
func (c *tierClient) runGeneration(idx, gen int) (time.Time, error) {
	e := c.e
	for s := idx; s < tierShards; s += 2 {
		devs := e.byShard[s]
		for j := 0; j < tierTarget; j++ {
			d := devs[(gen%tierCohorts)*tierTarget+j]
			id := strconv.FormatInt(d.id, 10)
			r, err := c.do(opCheckin, http.MethodPost, "/v1/checkin", d.checkin, "Content-Type", "application/json")
			if err != nil {
				return time.Time{}, err
			}
			c.expect(r, http.StatusOK)
			hdr := []string{"Accept", contentTypeTensor, "X-Flint-Accept-Schemes", acceptAll}
			if d.held > 0 {
				hdr = append(hdr, hdrBaseVersion, strconv.Itoa(d.held))
			}
			if r, err = c.pollTask(id, hdr); err != nil {
				return time.Time{}, err
			}
			base := r.header.Get(hdrBaseVersion)
			if d.held, err = strconv.Atoi(base); err != nil {
				return time.Time{}, fmt.Errorf("bad base version %q", base)
			}
			blob := e.blobs[hash64(e.cfg.Seed, uint64(gen)<<16|uint64(s*tierTarget+j))%roundBlobs]
			u, err := c.do(opUpdate, http.MethodPost, "/v1/update", blob,
				"Content-Type", contentTypeTensor, hdrDevice, id,
				hdrRound, r.header.Get(hdrRound), hdrBaseVersion, base,
				hdrWeight, strconv.Itoa(roundWeight))
			if err != nil {
				return time.Time{}, err
			}
			c.expect(u, http.StatusAccepted)
		}
	}
	return time.Now(), nil
}

// driveGeneration runs one tier generation: 64 devices through the gateway,
// four partials to the leader, one fold; it is over when the leader's
// version advances.
func (e *tierEnv) driveGeneration() error {
	e.gen++
	version := func() int { return e.leader.Version("") }
	err := e.loop.run(version, func(i, _ int) (time.Time, error) { return e.clients[i].runGeneration(i, e.gen) })
	if err != nil {
		return fmt.Errorf("generation %d: %w", e.gen, err)
	}
	e.foldWaits = append(e.foldWaits, satNS(e.xstats.takeWait()))
	for _, co := range e.shards {
		e.pendingMax = max(e.pendingMax, co.Counters().Counter("publish_pending").Value())
	}
	return nil
}

func (e *tierEnv) warmup() error {
	return driveWhole(e.cfg.scaled(tierWarmup, 2), time.Time{}, e.driveGeneration)
}

func (e *tierEnv) drive(n int, deadline time.Time) error {
	return driveWhole(n, deadline, e.driveGeneration)
}

func (e *tierEnv) take() taken { return e.loop.take(e.clients[0].client, e.clients[1].client) }

func (e *tierEnv) counters() map[string]int64 {
	snaps := []map[string]int64{e.leader.Counters().Snapshot()}
	for _, co := range e.shards {
		snaps = append(snaps, co.Counters().Snapshot())
	}
	gw := map[string]int64{}
	for k, v := range e.gw.Counters().Snapshot() {
		gw["gateway."+k] = v
	}
	return metrics.Rollup(append(snaps, gw)...)
}

func (e *tierEnv) verify() []oracle {
	var out []oracle
	// Settle: two more generations, keeping the leader's global after each,
	// so every shard's version (the leader's or one behind) has a reference.
	for i := 0; i < tierSettle; i++ {
		if err := e.driveGeneration(); err != nil {
			return append(out, check("settle", false, "%v", err))
		}
		v, p := e.leader.Global("")
		e.globals[v] = p
	}
	// The folding shard's install may still be in flight.
	time.Sleep(50 * time.Millisecond)
	final := e.leader.Version("")
	cs := e.counters()
	out = append(out, check("version", final == 1+e.gen && cs["tier_folds"] == int64(e.gen),
		"leader version %d after %d generations, %d folds", final, e.gen, cs["tier_folds"]))
	want := int64(e.gen * tierShards * tierTarget)
	out = append(out, check("accepted", cs["update_accepted"] == want && cs["update_rejected_late"] == 0,
		"accepted %d of %d sent, %d late", cs["update_accepted"], want, cs["update_rejected_late"]))
	halts := cs["tier_halts"] + cs["tier_halted_submissions"] + cs["gateway.halt_rejected_tasks"] + cs["partial_exchange_retries"]
	out = append(out, check("no_halts", halts == 0 && cs["tier_fold_errors"] == 0 && cs["gateway.proxy_errors"] == 0,
		"%d halts/retries, %d fold errors, %d proxy errors", halts, cs["tier_fold_errors"], cs["gateway.proxy_errors"]))
	for s, co := range e.shards {
		sv := co.Version()
		ref, ok := e.globals[sv]
		if !ok {
			out = append(out, check(fmt.Sprintf("shard%d_params", s), false, "shard at v%d, leader at v%d", sv, final))
			continue
		}
		m, err := co.Store().Get(co.Config().ModelName, sv)
		if err != nil {
			out = append(out, check(fmt.Sprintf("shard%d_params", s), false, "%v", err))
			continue
		}
		diff := 0
		for i, x := range m.Params() {
			if math.Float64bits(x) != math.Float64bits(ref[i]) {
				diff++
			}
		}
		out = append(out, check(fmt.Sprintf("shard%d_params", s), diff == 0,
			"shard v%d (leader v%d): %d params differ in bits from the leader's v%d", sv, final, diff, sv))
	}
	for _, bad := range []string{"rounds_abandoned", "round_aggregate_error", "round_publish_error", "global_install_error", "update_rejected_busy", "tier_bad_partials"} {
		if cs[bad] != 0 {
			out = append(out, check(bad, false, "%s = %d", bad, cs[bad]))
		}
	}
	return out
}

func (e *tierEnv) close() {
	for _, c := range e.clients {
		c.close()
	}
	for _, hb := range e.beats {
		hb.Stop()
	}
	for _, co := range e.shards {
		co.Close()
	}
	for _, srv := range e.srvs {
		srv.Close()
	}
	if e.gwSrv != nil {
		e.gwSrv.Close()
	}
}
