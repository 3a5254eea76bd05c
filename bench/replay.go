package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/metrics"
	"flint/internal/model"
	"flint/internal/modelstore"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// The replay half of the traced run: the inputs a run generated (device
// infos, request bodies, the round's blob set, the shards' partials) are fed
// straight into each layer's public functions and timed, with nothing else
// running. Medians over a few repetitions; each figure is the layer's cost
// without contention, so its share of a blocking path is a lower bound on
// what an optimisation of that layer can save.

const replayReps = 5

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// dataPlane describes the commit a workload runs, for replay.
type dataPlane struct {
	blobs    [][]byte // honest update blobs
	poison   [][]byte // poisoned blobs (defended only)
	updates  int      // updates per commit
	defended bool
	// What the commit's broadcast build encodes, read from the run itself:
	// the published versions the store still holds, newest first; the
	// transport policy; and the measured number of delta frames a commit
	// pre-encodes. A tier shard leaves versions empty: its broadcast build
	// follows the install, after the tier's version has advanced.
	versions   []tensor.Vector
	transport  transport.Config
	preEncoded float64
}

// readBroadcast fills in what a flat coordinator's broadcast build encodes.
func (dp *dataPlane) readBroadcast(co *coord.Coordinator) error {
	cfg := co.Config()
	for v := co.Version(); v >= 1 && len(dp.versions) < cfg.KeepVersions; v-- {
		m, err := co.Store().Get(cfg.ModelName, v)
		if err != nil {
			return err
		}
		dp.versions = append(dp.versions, m.Params())
	}
	cs := co.Counters()
	dp.transport = cfg.Transport
	dp.preEncoded = ratio(float64(cs.Counter("delta_pre_encoded").Value()), float64(cs.Counter("rounds_committed").Value()))
	return nil
}

// replayBroadcast times the codec work of one commit's broadcast build the
// way coord.buildBroadcast lays it out: the default cohort's full blob, then
// for each ring base a live device holds the diff to the new version under
// every cohort's delta scheme, the bases spread over GOMAXPROCS workers with
// one scratch vector each. The number of bases is the run's own
// delta_pre_encoded per commit over the number of delta schemes.
func replayBroadcast(dp dataPlane) (time.Duration, error) {
	schemes := dp.transport.DeltaSchemes()
	bases := 0
	if len(schemes) > 0 {
		bases = int(math.Round(dp.preEncoded / float64(len(schemes))))
	}
	if bases > len(dp.versions)-1 {
		return 0, fmt.Errorf("replay: %d delta bases per commit, %d versions in the store", bases, len(dp.versions))
	}
	published := dp.versions[0]
	workers := min(runtime.GOMAXPROCS(0), bases)
	scratch := make([]tensor.Vector, workers)
	for w := range scratch {
		scratch[w] = tensor.NewVector(len(published))
	}
	errs := make([]error, workers+1)
	d := medianDur(replayReps, func() {
		_, errs[workers] = codec.Encode(published, dp.transport.Default.Task)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w, diff := range scratch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)); i <= bases; i = int(next.Add(1)) {
					copy(diff, published)
					diff.Sub(dp.versions[i])
					for _, s := range schemes {
						if _, err := codec.EncodeDelta(diff, s); err != nil {
							errs[w] = err
						}
					}
				}
			}()
		}
		wg.Wait()
	})
	return d, errors.Join(errs...)
}

func payloads(blobs [][]byte, n int) ([]aggregator.Update, error) {
	ups := make([]aggregator.Update, n)
	for i := range ups {
		p, err := codec.ParsePayload(blobs[i%len(blobs)])
		if err != nil {
			return nil, err
		}
		ups[i] = aggregator.Update{ClientID: int64(i), Payload: p, Weight: roundWeight}
	}
	return ups, nil
}

// replayDataPlane times the codec, aggregator and modelstore work of one
// model-B commit on the run's own blobs.
func replayDataPlane(dp dataPlane) (map[string]float64, error) {
	out := map[string]float64{}
	m, err := model.New(model.KindB, 1)
	if err != nil {
		return nil, err
	}
	dim := m.NumParams()
	global := m.Params().Clone()
	blob := dp.blobs[0]

	// codec: parse one upload the way the update handler does.
	var perr error
	out["codec.payload_parse_us"] = us(medianDur(4*replayReps, func() {
		p, err := codec.DecodePayloadFrom(bytes.NewReader(blob), dim)
		if err != nil {
			perr = err
			return
		}
		p.Release()
	}))
	if perr != nil {
		return nil, perr
	}
	view, err := codec.ParsePayload(blob)
	if err != nil {
		return nil, err
	}
	scratch := tensor.NewVector(dim)
	kelem := float64(dim) / 1000
	out["codec.add_scaled_ns_per_kelem"] = float64(medianDur(4*replayReps, func() { view.AddScaledRange(scratch, 0.03125, 0, dim) })) / kelem
	out["codec.copy_range_ns_per_kelem"] = float64(medianDur(4*replayReps, func() { view.CopyRange(scratch, 0, dim) })) / kelem
	var sink float64
	out["codec.norm2_us"] = us(medianDur(4*replayReps, func() { sink += view.Norm2() }))

	// A commit's diff against the previous version looks like one update's
	// delta scaled down; encode that under each broadcast scheme.
	diff, _, err := codec.Decode(blob)
	if err != nil {
		return nil, err
	}
	encode := func(name, sizeName string, v tensor.Vector, s codec.Scheme, delta bool) {
		var enc []byte
		out[name] = ms(medianDur(replayReps, func() {
			if delta {
				enc, err = codec.EncodeDelta(v, s)
			} else {
				enc, err = codec.Encode(v, s)
			}
		}))
		if sizeName != "" {
			out[sizeName] = float64(len(enc))
		}
	}
	encode("codec.encode_f32_ms", "codec.bytes_f32_full", global, codec.F32, false)
	encode("codec.encode_q8_delta_ms", "codec.bytes_q8_delta", diff, codec.Q8, true)
	encode("codec.encode_topk_delta_ms", "codec.bytes_topk_delta", diff, codec.TopK(0), true)
	encode("codec.encode_raw64_ms", "", global, codec.RawF64, false)
	if err != nil {
		return nil, err
	}
	out["codec.bytes_q8_update"] = float64(len(blob))

	// aggregator: the reducers over the round's payloads.
	ups, err := payloads(dp.blobs, dp.updates)
	if err != nil {
		return nil, err
	}
	var reduce, screen time.Duration
	fedavg := aggregator.Parallel{Inner: aggregator.FedAvg{}, Screen: true}
	avg := medianDur(replayReps, func() { err = fedavg.Aggregate(global, ups) })
	if err != nil {
		return nil, err
	}
	if !dp.defended {
		reduce = avg
		out["aggregator.fedavg_reduce_ms"] = ms(avg)
	} else {
		// The defended commit screens all 16 (3 poisoned), then trims the
		// 13 kept.
		all := append([]aggregator.Update(nil), ups...)
		bad, err := payloads(dp.poison, roundPoisoned)
		if err != nil {
			return nil, err
		}
		copy(all, bad)
		ns := aggregator.NormScreen{MedianFactor: 4}
		var kept []aggregator.Update
		screen = medianDur(replayReps, func() { kept, _ = ns.Apply(all) })
		if len(kept) != dp.updates-roundPoisoned {
			return nil, fmt.Errorf("replayed screen kept %d of %d", len(kept), len(all))
		}
		trimmed := aggregator.Parallel{Inner: aggregator.TrimmedMean{TrimFrac: 0.2}, Screen: true}
		reduce = medianDur(replayReps, func() { err = trimmed.Aggregate(global, kept) })
		if err != nil {
			return nil, err
		}
		out["aggregator.trimmed_reduce_ms"] = ms(reduce)
		out["aggregator.screen_ms"] = ms(screen)
	}
	// Computed, not measured, bandwidth: every update's wire bytes are read
	// once and the float64 accumulator is read and written once per update.
	computed := float64(dp.updates) * (float64(view.WireLen()) + 16*float64(dim))
	out["aggregator.reduce_gb_per_s"] = computed / avg.Seconds() / 1e9

	// modelstore: serialise and insert one version, as publish does.
	store, err := modelstore.New("")
	if err != nil {
		return nil, err
	}
	version := 1
	put := medianDur(replayReps, func() {
		var buf bytes.Buffer
		if err = model.Save(m, &buf); err == nil {
			version++
			err = store.PutAt("replay", version, buf.Bytes())
		}
	})
	if err != nil {
		return nil, err
	}
	out["modelstore.put_ms"] = ms(put)

	_ = sink
	if len(dp.versions) == 0 {
		return out, nil // the tier sums its own blocking path: see tierEnv.replay
	}
	// The commit's blocking path, as far as these layers explain it: reduce
	// (+ screen), the broadcast build's encodes, store insert.
	bcast, err := replayBroadcast(dp)
	if err != nil {
		return nil, err
	}
	out["codec.broadcast_build_ms"] = ms(bcast)
	out["commit.aggregator_codec_ms"] = ms(reduce + screen + bcast)
	out["commit.replayed_ms"] = ms(reduce + screen + bcast + put)
	return out, nil
}

func (e *roundsEnv) replay() (map[string]float64, error) {
	dp := dataPlane{blobs: e.honest, poison: e.poison, updates: e.target, defended: e.defended}
	if err := dp.readBroadcast(e.co); err != nil {
		return nil, err
	}
	out, err := replayDataPlane(dp)
	if err == nil {
		out["modelstore.publish_pending_max"] = float64(e.pendingMax)
	}
	return out, err
}

func (e *tierEnv) replay() (map[string]float64, error) {
	out, err := replayDataPlane(dataPlane{blobs: e.blobs, updates: tierTarget})
	if err != nil {
		return nil, err
	}
	out["shard.fold_wait_ms"] = quantileMS(e.foldWaits, 0.5)
	out["modelstore.publish_pending_max"] = float64(e.pendingMax)
	ring := e.gw.Ring()
	var sink int
	const lookups = 200_000
	t0 := time.Now()
	for id := int64(0); id < lookups; id++ {
		sink += ring.Shard(id)
	}
	out["shard.ring_lookup_ns"] = float64(time.Since(t0)) / lookups
	_ = sink

	// Leader fold: four shards' raw64 partials into a leader of the bench's
	// own; the fourth submit of a generation runs the fold.
	partials := make([][]byte, tierShards)
	for s := range partials {
		v, _, err := codec.Decode(e.blobs[s])
		if err != nil {
			return nil, err
		}
		if partials[s], err = codec.Encode(v, codec.RawF64); err != nil {
			return nil, err
		}
	}
	// One leader, several generations, the first one untimed: like the
	// running tier, the timed folds reuse what the first one allocated.
	l, err := shard.NewLeader(shard.LeaderConfig{Shards: tierShards, Grace: time.Hour, Params: tierParams})
	if err != nil {
		return nil, err
	}
	for s := 0; s < tierShards; s++ {
		if err := l.Ping(s); err != nil {
			return nil, err
		}
	}
	folds := make([]float64, 0, replayReps)
	for gen := 1; gen <= 1+replayReps; gen++ {
		var last time.Duration
		for s := 0; s < tierShards; s++ {
			t0 := time.Now()
			if _, err := l.SubmitPartial(coord.PartialCommit{ShardID: s, Round: uint64(gen), BaseVersion: gen,
				Updates: tierTarget, Weight: tierTarget * roundWeight, Blob: partials[s]}); err != nil {
				return nil, err
			}
			last = time.Since(t0) // the fourth submit runs the fold
		}
		if v := l.Version(""); v != gen+1 {
			return nil, fmt.Errorf("replayed fold %d left the leader at v%d", gen, v)
		}
		if gen > 1 {
			folds = append(folds, float64(last))
		}
	}
	fold := time.Duration(metrics.MedianOf(folds))
	out["shard.leader_fold_ms"] = ms(fold)
	// The tier's commit (last update's 2xx → leader version) blocks on the
	// last shard's reduce and raw64 partial, then the fold; the shards'
	// installs and publishes come after the version advances.
	kernels := time.Duration((out["aggregator.fedavg_reduce_ms"]+out["codec.encode_raw64_ms"])*1e6) + fold
	out["commit.aggregator_codec_ms"] = ms(kernels)
	out["commit.replayed_ms"] = ms(kernels)
	return out, nil
}

// discard is a ResponseWriter that drops the reply (replayed handlers are
// timed without a network).
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// replay for ctrl_storm calls the live coordinators' entry points directly
// (the stack is idle by now) and rebuilds the scheduler's census off to the
// side from the same device infos.
func (e *ctrlEnv) replay() (map[string]float64, error) {
	out := map[string]float64{}
	ads := e.ads()
	rng := newPRNG(e.cfg.Seed, 999)
	half := int64(e.devices / 2)
	const n = 20_000
	infos := make([]coord.DeviceInfo, n)
	for i := range infos {
		d := deviceOf(e.cfg.Seed, 1+int64(rng.intn(int(half))), ctrlLegacyShare)
		d.redraw(rng)
		infos[i] = deviceInfo(&d)
	}
	per := func(d time.Duration) float64 { return us(d) / n }

	t0 := time.Now()
	for i := range infos {
		ads.CheckIn(infos[i])
	}
	out["coord.checkin_us"] = per(time.Since(t0))

	batch := infos[:min(ctrlBatch, n)]
	out["coord.checkin_batch_us_per_device"] = us(medianDur(replayReps, func() { ads.CheckInBatch(batch) })) / float64(len(batch))

	t0 = time.Now()
	for i := range infos {
		_ = ads.Heartbeat(infos[i].ID) // every id is registered
	}
	out["coord.heartbeat_us"] = per(time.Since(t0))

	// Task requests: eligible devices get tasks until the round's budget is
	// spent, the rest poll empty; both are the serving path.
	t0 = time.Now()
	var tasks []coord.Task
	var holders []int64
	for i := range infos {
		tk, err := ads.RequestTaskWith(infos[i].ID, coord.TaskQuery{Binary: true, BaseVersion: ads.Version() - 1})
		if err == nil {
			tasks, holders = append(tasks, tk), append(holders, infos[i].ID)
		}
	}
	out["coord.task_us"] = per(time.Since(t0))

	// Submit for the tasks just handed out (a partial round: no commit).
	subs := make([]coord.Submission, 0, len(tasks))
	for i, tk := range tasks {
		if i >= ctrlTarget/2 {
			break
		}
		p, err := codec.DecodePayloadFrom(bytes.NewReader(e.blobs[i%len(e.blobs)]), e.dim)
		if err != nil {
			return nil, err
		}
		subs = append(subs, coord.Submission{DeviceID: holders[i], RoundID: tk.RoundID, BaseVersion: tk.BaseVersion, Weight: 10, Payload: p})
	}
	if len(subs) > 0 {
		t0 = time.Now()
		for _, s := range subs {
			if err := ads.SubmitUpdate(s); err != nil {
				return nil, fmt.Errorf("replayed submit: %w", err)
			}
		}
		out["coord.submit_us"] = us(time.Since(t0)) / float64(len(subs))
	}
	st := ads.Status()
	out["coord.registry_bytes_per_device"] = st.Scheduler.Footprint.RegistryBytesPerDev

	// transport: one negotiation per device info.
	neg, err := transport.NewNegotiator(ads.Config().Transport)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := range infos {
		neg.Negotiate(transport.Device{Platform: infos[i].Platform, WiFi: infos[i].WiFi, Accept: infos[i].Accept})
	}
	out["transport.negotiate_ns"] = float64(time.Since(t0)) / n

	// sched: the census walk and rebuild over a registry of the same size.
	crit := availability.Criteria{RequireWiFi: true, RequireBatteryHigh: true}
	reg := coord.NewRegistry(64, 2*time.Minute)
	now := time.Now()
	for id := int64(1); id <= half; id++ {
		d := deviceOf(e.cfg.Seed, id, ctrlLegacyShare)
		d.redraw(rng)
		reg.CheckIn(deviceInfo(&d), now)
	}
	var samples []sched.DeviceSample
	out["sched.samples_ms"] = ms(medianDur(replayReps, func() { samples = reg.SchedSamples(crit, now, 10*time.Minute) }))
	sc, err := sched.New(sched.Config{})
	if err != nil {
		return nil, err
	}
	ests := map[string]sched.TaskEstimate{transport.CohortDefault: {DownBytes: 6000, UpBytes: 1600}}
	out["sched.rebuild_ms"] = ms(medianDur(replayReps, func() { sc.Rebuild(samples, 30*time.Second, ests) }))
	tel := sched.Telemetry{DownBps: 1e6, UpBps: 5e5, TaskSec: 2, DownSamples: 3, UpSamples: 3, TaskSamples: 3}
	admitted := 0
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if sc.Admit(tel, 20*time.Second, ests[transport.CohortDefault]) {
			admitted++
		}
	}
	out["sched.admit_ns"] = float64(time.Since(t0)) / n
	if admitted != n {
		return nil, fmt.Errorf("replayed deadline gate admitted %d of %d", admitted, n)
	}

	// aggregator: the async job's FedBuff fold over one buffer of payloads.
	ups, err := payloads(e.blobs, ctrlTarget)
	if err != nil {
		return nil, err
	}
	m, err := model.New(model.KindA, 1)
	if err != nil {
		return nil, err
	}
	fb := aggregator.Parallel{Inner: aggregator.FedBuff{ServerLR: 1}, Screen: true}
	g := m.Params().Clone()
	var aerr error
	fold := medianDur(replayReps, func() { aerr = fb.Aggregate(g, ups) })
	if aerr != nil {
		return nil, aerr
	}
	out["aggregator.fedbuff_reduce_us"] = us(fold)
	out["commit.aggregator_codec_ms"] = ms(fold)
	out["commit.replayed_ms"] = ms(fold)

	route, err := replayTenantRoute(n)
	if err != nil {
		return nil, err
	}
	out["tenant.route_us"] = route
	out["modelstore.publish_pending_max"] = float64(e.obs.pendingMax)
	return out, nil
}

func deviceInfo(d *device) coord.DeviceInfo {
	info := coord.DeviceInfo{ID: d.id, Model: d.model, Platform: d.platform, WiFi: d.wifi,
		BatteryHigh: d.batteryHigh, ModernOS: d.modernOS, SessionSec: d.sessionSec, Weight: float64(d.weight)}
	if !d.legacy {
		info.Accept = transport.AllKinds()
	}
	return info
}

// replayTenantRoute times the same check-in request through a tenant.Server
// (prefix routing, job lookup, token check) and through a bare coord.Server,
// and returns the difference per request in µs.
func replayTenantRoute(n int) (float64, error) {
	base := coord.Config{ModelKind: model.KindA, Seed: 1, TargetUpdates: ctrlTarget}
	reg := tenant.NewRegistry(base)
	defer reg.Close()
	if _, err := reg.Register(tenant.JobSpec{Name: "ads"}); err != nil {
		return 0, err
	}
	if _, err := reg.Register(tenant.JobSpec{Name: "msg", Token: ctrlToken}); err != nil {
		return 0, err
	}
	bare, err := coord.New(base)
	if err != nil {
		return 0, err
	}
	defer bare.Close()
	d := deviceOf(1, 1, 0)
	d.wifi, d.batteryHigh, d.sessionSec = true, true, 600
	body := appendCheckin(nil, &d)
	serve := func(h http.Handler, path string) time.Duration {
		w := &discard{h: http.Header{}}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Header.Set("Authorization", "Bearer "+ctrlToken)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			h.ServeHTTP(w, req)
		}
		return time.Since(t0)
	}
	routed := serve(tenant.NewServer(reg, false), "/v1/jobs/msg/checkin")
	direct := serve(coord.NewServer(bare), "/v1/checkin")
	return us(routed-direct) / float64(n), nil
}
