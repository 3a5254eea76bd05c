package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/tensor"
)

// Frozen sizes of bulk_rounds and defended_rounds.
const (
	bulkTarget     = 32
	defendedTarget = 16
	roundOverCmt   = 1.25
	roundBlobs     = 64   // distinct honest update blobs
	roundPoison    = 16   // distinct poisoned update blobs (defended_rounds)
	roundPoisoned  = 3    // poisoned submitters per defended round
	poisonScale    = 50   // sign-flip boost
	deltaScale     = 0.01 // honest delta standard deviation
	roundWeight    = 10   // every device reports the same example count
	roundWarmup    = 12   // rounds: past the 8-deep ring and the every-9th group's first return
	roundHeapAt    = 64   // rounds into the timed phase at which live_heap_mib is read
	keepSamples    = 8    // rounds of sampled task bodies retained for the oracle

	dpEpsilon = 8
	dpDelta   = 1e-5
	dpClip    = 1
)

// A cohort member's relation to the published version v at its task fetch.
const (
	baseNone  = 0 // sends no base: full broadcast
	basePrev  = 1 // holds v-1: delta, pre-encoded at commit
	baseThree = 3 // holds v-3: delta from deeper in the ring
	baseAged  = 9 // holds v-9: past the 8-deep ring, falls back to full
)

// roundDevice is one member of the device pool of the round workloads.
type roundDevice struct {
	id      int64
	every   int // participates in rounds where round % every == phase
	phase   int
	base    int // one of the base* constants
	checkin []byte
}

// roundStep is one cohort member's part in a round: check in, fetch the
// task, and (unless it is an over-commit extra) upload slot's blob.
type roundStep struct {
	dev  *roundDevice
	slot int // submitter slot, -1 for an extra that downloads and never submits
}

// sample is a retained task body for the rebuild oracle.
type sample struct {
	body          []byte
	base, version int
	delta         bool
	round         int
}

// roundsEnv is the data-plane workload: one flat sync coordinator on model B
// behind its own HTTP server, a cohort with a fixed spread of held bases, and
// pre-encoded 190 KB q8 updates. defended switches the commit path to norm
// screen + trimmed mean + DP and poisons 3 submitters a round.
type roundsEnv struct {
	cfg      runConfig
	defended bool
	target   int
	dim      int
	co       *coord.Coordinator
	srv      *httptest.Server
	clients  []*roundClient
	pool     []*roundDevice
	honest   [][]byte
	poison   [][]byte
	init     tensor.Vector

	round int // rounds driven, warm-up included
	loop  roundLoop
	// epsStart is the privacy budget spent when warm-up ended.
	epsStart float64
	// pendingMax is the deepest write-behind backlog seen at a round's end.
	pendingMax int64
}

type roundClient struct {
	*client
	e  *roundsEnv
	id int
	// used counts accepted uploads per honest blob: the weighted-mean
	// oracle's input.
	used    []int64
	samples [keepSamples][4]sample
	// wrongKind counts task replies whose delta/full form was not the one
	// the device's base calls for.
	wrongKind int64
}

func newBulkEnv(cfg runConfig, t *tracer) (env, error) {
	return newRoundsEnv(cfg, t, false)
}

func newDefendedEnv(cfg runConfig, t *tracer) (env, error) {
	return newRoundsEnv(cfg, t, true)
}

func newRoundsEnv(cfg runConfig, t *tracer, defended bool) (env, error) {
	e := &roundsEnv{cfg: cfg, defended: defended, target: bulkTarget}
	cc := coord.Config{
		Mode:          coord.ModeSync,
		ModelKind:     model.KindB,
		Seed:          1,
		TargetUpdates: bulkTarget,
		OverCommit:    roundOverCmt,
	}
	if defended {
		e.target = defendedTarget
		cc.TargetUpdates = defendedTarget
		cc.Aggregation = coord.AggregationConfig{Strategy: "trimmed-mean", TrimFrac: 0.2, ScreenMedianFactor: 4}
		cc.DP = coord.DPConfig{Epsilon: dpEpsilon, Delta: dpDelta, ClipNorm: dpClip, Seed: cfg.Seed}
	}
	m, err := model.New(model.KindB, 1)
	if err != nil {
		return nil, err
	}
	e.dim, e.init = m.NumParams(), m.Params().Clone()
	if e.co, err = coord.New(cc); err != nil {
		return nil, err
	}
	e.srv = httptest.NewServer(t.wrap(layerOuter, coord.NewServer(e.co)))
	if e.honest, err = newUpdatePool(cfg.Seed, roundBlobs, e.dim, deltaScale, 0, codec.Q8); err != nil {
		e.close()
		return nil, err
	}
	if defended {
		if e.poison, err = newUpdatePool(cfg.Seed+1, roundPoison, e.dim, deltaScale, -poisonScale, codec.Q8); err != nil {
			e.close()
			return nil, err
		}
	}
	e.buildPool()
	for i := 0; i < 2; i++ {
		e.clients = append(e.clients, &roundClient{client: newClient(e.srv.URL, t), e: e, id: i, used: make([]int64, roundBlobs)})
	}
	// One batch check-in registers the whole pool.
	body := []byte(`{"devices":[`)
	for i, d := range e.pool {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, d.checkin...)
	}
	body = append(body, "]}"...)
	c := e.clients[0]
	r, err := c.do(opBatch, http.MethodPost, "/v1/checkin/batch", body, "Content-Type", "application/json")
	if err == nil && !c.expect(r, http.StatusOK) {
		err = fmt.Errorf("pool check-in: status %d: %s", r.status, r.body)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	c.reset()
	return e, nil
}

// buildPool lays out the device pool so that every round's cohort holds the
// same spread of bases: 60 % one version behind, 20 % three behind, 10 % nine
// behind (aged out of the ring) and 10 % none. A device that returns every
// k-th round holds v-k when it does. Every fourth device is on cellular (the
// lowbw cohort).
func (e *roundsEnv) buildPool() {
	assigned := int(float64(e.target) * roundOverCmt)
	nThree, nAged, nNone := assigned/5, assigned/10, assigned/10
	nPrev := assigned - nThree - nAged - nNone
	id := int64(1)
	add := func(n, every, base int) {
		for phase := 0; phase < every; phase++ {
			for i := 0; i < n; i++ {
				d := device{id: id, model: deviceModels[int(id)%len(deviceModels)], platform: "Android",
					modernOS: true, weight: roundWeight, wifi: id%4 != 0, batteryHigh: true, sessionSec: 600}
				e.pool = append(e.pool, &roundDevice{id: id, every: every, phase: phase, base: base,
					checkin: appendCheckin(nil, &d)})
				id++
			}
		}
	}
	add(nPrev, 1, basePrev)
	add(nThree, 3, baseThree)
	add(nAged, 9, baseAged)
	add(nNone, 1, baseNone)
}

// script returns the steps of one round for each client. The first
// assigned-target members are the over-commit extras; they come first in each
// client's list so they always fetch before the round can fill.
func (e *roundsEnv) script(round int) [2][]roundStep {
	var cohort []*roundDevice
	for _, d := range e.pool {
		if round%d.every == d.phase {
			cohort = append(cohort, d)
		}
	}
	var out [2][]roundStep
	extras := len(cohort) - e.target
	for i, d := range cohort {
		slot := i - extras
		if slot < 0 {
			slot = -1
		}
		out[i%2] = append(out[i%2], roundStep{dev: d, slot: slot})
	}
	return out
}

// blobFor picks the blob a submitter slot uploads in a round.
func (e *roundsEnv) blobFor(round, slot int) (blob []byte, honest int) {
	h := hash64(e.cfg.Seed, uint64(round)<<16|uint64(slot))
	if e.defended && slot%5 == 2 && slot/5 < roundPoisoned {
		return e.poison[h%roundPoison], -1
	}
	i := int(h % roundBlobs)
	return e.honest[i], i
}

func (c *roundClient) runRound(round, version int, steps []roundStep) (time.Time, error) {
	e := c.e
	for _, st := range steps {
		d := st.dev
		id := strconv.FormatInt(d.id, 10)
		r, err := c.do(opCheckin, http.MethodPost, "/v1/checkin", d.checkin, "Content-Type", "application/json")
		if err != nil {
			return time.Time{}, err
		}
		c.expect(r, http.StatusOK)

		hdr := []string{"Accept", contentTypeTensor, "X-Flint-Accept-Schemes", acceptAll}
		base := 0
		if d.base != baseNone && version-d.base >= 1 {
			base = version - d.base
			hdr = append(hdr, hdrBaseVersion, strconv.Itoa(base))
		}
		if r, err = c.pollTask(id, hdr); err != nil {
			return time.Time{}, err
		}
		isDelta := r.header.Get(hdrDelta) != ""
		if wantDelta := base > 0 && d.base < baseAged; isDelta != wantDelta {
			c.wrongKind++
			c.failed++
		}
		if c.id == 0 {
			c.keep(round, base, version, isDelta, d.id%4 == 0, r.body)
		}
		if st.slot < 0 {
			continue
		}
		blob, honest := e.blobFor(round, st.slot)
		u, err := c.do(opUpdate, http.MethodPost, "/v1/update", blob,
			"Content-Type", contentTypeTensor, hdrDevice, id,
			hdrRound, r.header.Get(hdrRound), hdrBaseVersion, r.header.Get(hdrBaseVersion),
			hdrWeight, strconv.Itoa(roundWeight))
		if err != nil {
			return time.Time{}, err
		}
		if c.expect(u, http.StatusAccepted) && honest >= 0 {
			c.used[honest]++
		}
	}
	return time.Now(), nil
}

// keep retains one task body of each kind per round (q8 delta, topk delta,
// f32 full, topk full) for the rebuild oracle.
func (c *roundClient) keep(round, base, version int, delta, lowbw bool, body []byte) {
	kind := 0
	if !delta {
		kind = 2
	}
	if lowbw {
		kind++
	}
	s := &c.samples[round%keepSamples][kind]
	if s.round == round {
		return
	}
	s.body = append(s.body[:0], body...)
	s.base, s.version, s.delta, s.round = base, version, delta, round
}

// driveRound runs one full round: both clients work through their steps, then
// the round is over when the next version becomes visible.
func (e *roundsEnv) driveRound() error {
	e.round++
	steps := e.script(e.round)
	err := e.loop.run(e.co.Version, func(i, version int) (time.Time, error) {
		return e.clients[i].runRound(e.round, version, steps[i])
	})
	if err != nil {
		return fmt.Errorf("round %d: %w", e.round, err)
	}
	e.pendingMax = max(e.pendingMax, e.co.Counters().Counter("publish_pending").Value())
	return nil
}

// roundLoop is what the round-driven workloads share: the two clients play
// their parts of a round concurrently, and the round ends when the published
// version advances.
type roundLoop struct {
	lastAdvance time.Time
	rounds      []lat // version N visible → version N+1 visible
	commits     []lat // the round's last 2xx → version N+1 visible
	// waited is the clients' time between finishing their part and the
	// version advancing: the program's time, not the generator's.
	waited time.Duration
}

// run drives one round. part(i, v) is client i's share of it at published
// version v and returns when its last reply was read.
func (l *roundLoop) run(version func() int, part func(client, version int) (time.Time, error)) error {
	v := version()
	var done [2]time.Time
	var errs [2]error
	var wg sync.WaitGroup
	for i := range done {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			done[i], errs[i] = part(i, v)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fill := done[0]
	if done[1].After(fill) {
		fill = done[1]
	}
	now, err := awaitVersion(version, v)
	if err != nil {
		return err
	}
	l.commits = append(l.commits, satNS(now.Sub(fill)))
	if !l.lastAdvance.IsZero() {
		l.rounds = append(l.rounds, satNS(now.Sub(l.lastAdvance)))
	}
	l.lastAdvance = now
	for _, d := range done {
		l.waited += now.Sub(d)
	}
	return nil
}

// take returns what the loop and its clients measured and resets them; the
// next round time starts at the next version seen, so whatever the caller
// does between two phases is in no sample.
func (l *roundLoop) take(clients ...*client) taken {
	tk := taken{m: drain(clients...), waited: l.waited, clients: len(clients), rounds: l.rounds, commits: l.commits}
	*l = roundLoop{}
	return tk
}

// awaitVersion polls a public version accessor every 100 µs until it passes
// v, and returns when that was seen.
func awaitVersion(version func() int, v int) (time.Time, error) {
	deadline := time.Now().Add(20 * time.Second)
	for version() <= v {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("version stuck at %d", v)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Now(), nil
}

func (e *roundsEnv) warmup() error {
	if err := driveWhole(e.cfg.scaled(roundWarmup, 3), time.Time{}, e.driveRound); err != nil {
		return err
	}
	if e.defended {
		e.epsStart = e.co.Status().Privacy.EpsilonSpent
	}
	return nil
}

func (e *roundsEnv) drive(n int, deadline time.Time) error {
	return driveWhole(n, deadline, e.driveRound)
}

// driveWhole calls round n times when n > 0, else until the deadline.
func driveWhole(n int, deadline time.Time, round func() error) error {
	for i := 0; i < n || n <= 0 && time.Now().Before(deadline); i++ {
		if err := round(); err != nil {
			return err
		}
	}
	return nil
}

func (e *roundsEnv) take() taken { return e.loop.take(e.clients[0].client, e.clients[1].client) }

func (e *roundsEnv) counters() map[string]int64 { return e.co.Counters().Snapshot() }

func (e *roundsEnv) verify() []oracle {
	var out []oracle
	cs := e.counters()
	final := e.co.Version()
	out = append(out, check("version", final == 1+e.round && cs["rounds_committed"] == int64(e.round),
		"version %d after %d rounds driven, %d committed", final, e.round, cs["rounds_committed"]))
	wantAccepted := int64(e.round * e.target)
	out = append(out, check("accepted", cs["update_accepted"] == wantAccepted && cs["update_rejected_late"] == 0,
		"accepted %d of %d sent, %d late", cs["update_accepted"], wantAccepted, cs["update_rejected_late"]))
	var wrong int64
	for _, c := range e.clients {
		wrong += c.wrongKind
	}
	out = append(out, check("task_kinds", wrong == 0, "%d task replies in the wrong delta/full form", wrong))
	for _, bad := range []string{"rounds_abandoned", "round_aggregate_error", "round_aggregate_nonfinite", "round_publish_error", "update_rejected_busy"} {
		if cs[bad] != 0 {
			out = append(out, check(bad, false, "%s = %d", bad, cs[bad]))
		}
	}
	params := func(v int) (tensor.Vector, error) {
		m, err := e.co.Store().Get(e.co.Config().ModelName, v)
		if err != nil {
			return nil, err
		}
		return m.Params(), nil
	}
	if e.defended {
		out = append(out, e.verifyDefended(cs, final, params)...)
	} else {
		out = append(out, e.verifyMean(final, params))
	}
	return append(out, e.verifySamples(final, params))
}

// verifyMean recomputes the published parameters from the blobs themselves:
// with equal weights every round adds the plain mean of its updates, so the
// final vector is the initial one plus each blob's decoded delta times its
// use count over target.
func (e *roundsEnv) verifyMean(final int, params func(int) (tensor.Vector, error)) oracle {
	want := e.init.Clone()
	for i, blob := range e.honest {
		n := e.clients[0].used[i] + e.clients[1].used[i]
		if n == 0 {
			continue
		}
		d, _, err := codec.Decode(blob)
		if err != nil {
			return check("weighted_mean", false, "decode blob %d: %v", i, err)
		}
		want.AddScaled(float64(n)/float64(e.target), d)
	}
	got, err := params(final)
	if err != nil {
		return check("weighted_mean", false, "%v", err)
	}
	var num, den float64
	for i := range want {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	rel := math.Sqrt(num / den)
	return check("weighted_mean", rel <= 1e-9, "published v%d vs decode-then-mean of the same blobs: relative error %.3g", final, rel)
}

// verifyDefended checks the robust path's outputs: exactly the poisoned
// updates screened, the privacy budget spent and rising, and every retained
// commit's drift within clip plus the noise the DP stage adds.
func (e *roundsEnv) verifyDefended(cs map[string]int64, final int, params func(int) (tensor.Vector, error)) []oracle {
	var out []oracle
	want := int64(e.round * roundPoisoned)
	out = append(out, check("screened", cs["updates_screened_norm"] == want, "screened %d, poisoned %d", cs["updates_screened_norm"], want))
	eps := e.co.Status().Privacy.EpsilonSpent
	out = append(out, check("epsilon", e.epsStart > 0 && eps > e.epsStart && cs["dp_rounds"] == int64(e.round),
		"epsilon %.4g after warm-up, %.4g at the end, %d noised rounds", e.epsStart, eps, cs["dp_rounds"]))
	// Noise is N(0, (sigma*clip/n)^2) per coordinate over n kept updates, so
	// its norm concentrates at std*sqrt(dim); allow 10 % over.
	sigma := math.Sqrt(2*math.Log(1/dpDelta)) / dpEpsilon
	std := sigma * dpClip / float64(e.target-roundPoisoned)
	bound := dpClip + 1.1*std*math.Sqrt(float64(e.dim))
	prev, err := params(final)
	worst := 0.0
	for v := final - 1; err == nil && v >= 1 && v > final-keepSamples+1; v-- {
		var cur tensor.Vector
		if cur, err = params(v); err != nil {
			break
		}
		var s float64
		for i := range cur {
			s += (prev[i] - cur[i]) * (prev[i] - cur[i])
		}
		worst = math.Max(worst, math.Sqrt(s))
		prev = cur
	}
	if err != nil {
		return append(out, check("drift", false, "%v", err))
	}
	return append(out, check("drift", worst > 0 && worst <= bound, "largest commit drift %.4g, bound clip+noise %.4g", worst, bound))
}

// verifySamples rebuilds the version each retained task body names: a full
// body must decode to the published vector, a delta applied to its base must
// land on it, each within its scheme's loss.
func (e *roundsEnv) verifySamples(final int, params func(int) (tensor.Vector, error)) oracle {
	checked := 0
	cache := map[int]tensor.Vector{}
	get := func(v int) tensor.Vector {
		if p, ok := cache[v]; ok {
			return p
		}
		p, err := params(v)
		if err != nil {
			p = nil
		}
		cache[v] = p
		return p
	}
	for _, row := range e.clients[0].samples {
		for _, s := range row {
			if s.round == 0 || s.version <= final-keepSamples {
				continue
			}
			target := get(s.version)
			if target == nil {
				continue
			}
			ref := target
			if s.delta {
				base := get(s.base)
				if base == nil {
					continue // the base was pruned from the store
				}
				ref = target.Clone()
				ref.Sub(base)
			}
			got, scheme, err := codec.Decode(s.body)
			if err == nil && codec.IsDelta(s.body) != s.delta {
				err = fmt.Errorf("delta flag %v under delta header %v", codec.IsDelta(s.body), s.delta)
			}
			if err == nil {
				err = withinLoss(got, ref, scheme)
			}
			if err != nil {
				return check("task_bodies", false, "round %d, v%d (base %d, %s): %v", s.round, s.version, s.base, scheme, err)
			}
			checked++
		}
	}
	return check("task_bodies", checked > 0, "%d sampled task bodies rebuild the version they name", checked)
}

// withinLoss reports whether got reproduces want up to the scheme's loss:
// float32 rounding for f32, half a quantization step per 256-chunk for q8,
// and for topk exact-as-float32 kept entries, dim/32 of them.
func withinLoss(got, want tensor.Vector, s codec.Scheme) error {
	if len(got) != len(want) {
		return fmt.Errorf("dim %d, want %d", len(got), len(want))
	}
	switch s.Kind {
	case codec.KindF32:
		for i := range want {
			if got[i] != float64(float32(want[i])) {
				return fmt.Errorf("elem %d: %g, want %g", i, got[i], want[i])
			}
		}
	case codec.KindQ8:
		const chunk = 256
		for lo := 0; lo < len(want); lo += chunk {
			hi := min(lo+chunk, len(want))
			var maxAbs float64
			for _, x := range want[lo:hi] {
				maxAbs = math.Max(maxAbs, math.Abs(x))
			}
			tol := maxAbs/127/2*(1+1e-3) + 1e-12
			for i := lo; i < hi; i++ {
				if math.Abs(got[i]-want[i]) > tol {
					return fmt.Errorf("elem %d: %g, want %g within %g", i, got[i], want[i], tol)
				}
			}
		}
	case codec.KindTopK:
		kept := 0
		for i := range want {
			if got[i] == 0 {
				continue
			}
			kept++
			if got[i] != float64(float32(want[i])) {
				return fmt.Errorf("kept elem %d: %g, want %g", i, got[i], want[i])
			}
		}
		if k := max(len(want)/32, 1); kept != k {
			return fmt.Errorf("%d kept entries, want %d", kept, k)
		}
	default:
		return fmt.Errorf("unexpected scheme %s", s)
	}
	return nil
}

func (e *roundsEnv) close() {
	for _, c := range e.clients {
		c.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.co.Close()
}
