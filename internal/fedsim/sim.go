package fedsim

import (
	"fmt"
	"math"
	"sort"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/model"
	"flint/internal/tensor"
	"flint/internal/vclock"
)

// task is one client-task lifecycle record tracked by the leader.
type task struct {
	clientID    int64
	window      availability.Window
	dispatched  float64
	duration    float64
	baseRound   int
	future      chan trainResult
	failed      bool
	interrupted bool
	shardSize   int
}

// sim is the leader node: it owns the virtual clock, the event queue, the
// global model, the executor pool, and all bookkeeping.
type sim struct {
	cfg    Config
	env    *Environment
	clock  vclock.Clock
	queue  vclock.Queue
	cursor *windowCursor
	pool   *executorPool
	snaps  *snapshotStore
	// screen → strat → dp are the server's commit stages, built from the
	// same configuration (dp is nil when DP is off).
	screen aggregator.NormScreen
	strat  aggregator.Strategy
	dp     *aggregator.DP

	global    tensor.Vector
	evalModel model.Model

	busyUntil map[int64]float64
	ready     []availability.Window
	taskSeq   uint64
	round     int
	inflight  int

	buffer       []aggregator.Update
	bufferLosses []float64
	lastAggTime  float64
	haltUntil    float64

	report *Report
	cur    RoundStat
}

// newSim validates inputs and assembles the leader state.
func newSim(cfg Config, env *Environment) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	// Validate accepted both configs, so defaulting cannot fail here.
	agg, _ := cfg.Aggregation.WithDefaults(cfg.Mode == Async)
	dp, _ := cfg.DP.WithDefaults(cfg.Seed)
	evalModel, err := model.New(cfg.ModelKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pool, err := newExecutorPool(cfg.Executors, cfg.ModelKind)
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:       cfg,
		env:       env,
		cursor:    newWindowCursor(env.Trace),
		pool:      pool,
		snaps:     newSnapshotStore(),
		screen:    agg.Screen(),
		strat:     agg.Reducer(cfg.Mode == Async, aggregator.FedBuff{ServerLR: cfg.ServerLR, Alpha: cfg.StalenessAlpha}),
		dp:        aggregator.NewDP(dp),
		global:    evalModel.Params().Clone(),
		evalModel: evalModel,
		busyUntil: make(map[int64]float64),
		report:    &Report{Mode: cfg.Mode, ModelKind: string(cfg.ModelKind)},
	}
	s.cur = RoundStat{Metric: math.NaN()}
	return s, nil
}

// Run executes one simulation job and returns its report.
func Run(cfg Config, env *Environment) (*Report, error) {
	s, err := newSim(cfg, env)
	if err != nil {
		return nil, err
	}
	defer s.pool.close()
	s.pushNextWindow()
	switch cfg.Mode {
	case Async:
		err = s.runAsync()
	case Sync:
		err = s.runSync()
	default:
		err = fmt.Errorf("fedsim: unknown mode %q", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	s.finalize()
	return s.report, nil
}

func (s *sim) pushNextWindow() {
	if w, ok := s.cursor.next(); ok {
		s.queue.Push(w.Start, w)
	}
}

// busy reports whether the client is mid-task at time t.
func (s *sim) busy(id int64, t float64) bool { return s.busyUntil[id] > t }

// maxVirtualSec is a safety stop: two virtual years bound event processing
// even when a misconfigured job makes no round progress.
const maxVirtualSec = 2 * 365 * 86400

// hardStopReached checks the stop conditions.
func (s *sim) hardStopReached() (string, bool) {
	if s.round >= s.cfg.MaxRounds {
		return "max rounds", true
	}
	if s.clock.Now() >= maxVirtualSec {
		return "virtual time budget", true
	}
	return "", false
}

// dispatch starts a client task from an availability window at the current
// virtual time. Returns nil when the client has no usable data.
func (s *sim) dispatch(w availability.Window) *task {
	now := s.clock.Now()
	shard := s.env.Shards.Shard(w.ClientID)
	examples := shard.Examples
	if len(examples) == 0 {
		return nil
	}
	if s.cfg.MaxShardExamples > 0 && len(examples) > s.cfg.MaxShardExamples {
		examples = examples[:s.cfg.MaxShardExamples]
	}
	s.taskSeq++
	rng := taskRNG(s.cfg.Seed, s.taskSeq)
	perEx := s.env.Times.Sample(rng)
	dur := taskDuration(perEx, s.cfg.LocalEpochs, len(examples), s.env.UpdateBytes, s.env.Bandwidth, rng)
	t := &task{
		clientID:   w.ClientID,
		window:     w,
		dispatched: now,
		duration:   dur,
		baseRound:  s.round,
		shardSize:  len(examples),
	}
	t.failed = s.cfg.FailureRate > 0 && rng.Float64() < s.cfg.FailureRate
	t.interrupted = now+dur > w.End
	if !t.failed && !t.interrupted {
		base := s.snaps.acquire(s.round, s.global)
		t.future = s.pool.submit(trainJob{
			clientID: w.ClientID,
			base:     base,
			examples: examples,
			local: model.LocalConfig{
				Epochs:    s.cfg.LocalEpochs,
				BatchSize: s.cfg.BatchSize,
				LR:        s.cfg.Schedule.LR(s.round),
				ProxMu:    s.cfg.ProxMu,
			},
			seed:    s.cfg.Seed,
			taskSeq: s.taskSeq,
		})
	}
	s.busyUntil[w.ClientID] = now + dur
	s.cur.Started++
	s.report.TotalStarted++
	return t
}

// chargeCompute accounts device time for a finished task.
func (s *sim) chargeCompute(t *task) {
	var sec float64
	switch {
	case t.failed:
		sec = 0.5 * t.duration // crashed partway through
	case t.interrupted:
		sec = t.window.End - t.dispatched
	default:
		sec = t.duration
	}
	if sec < 0 {
		sec = 0
	}
	s.cur.ComputeSec += sec
	s.report.TotalComputeSec += sec
}

// aggregate folds the pending buffer into the global model and closes the
// round's bookkeeping. Used by both modes.
func (s *sim) aggregate() error {
	updates := s.buffer
	s.buffer = nil
	losses := s.bufferLosses
	s.bufferLosses = nil
	if len(updates) == 0 {
		return fmt.Errorf("fedsim: aggregate with empty buffer")
	}
	if s.cfg.Adversary != nil {
		poisoned, _, err := s.cfg.Adversary.Apply(updates)
		if err != nil {
			return err
		}
		updates = poisoned
	}
	// The server's commit: screen → reduce → clip → noise, with the DP
	// noise keyed to the version this round publishes, numbered like the
	// model store's (initial params are v1), and drawn, as the server draws
	// it, beside the screen and the reduce.
	dp := s.dp.Begin(s.round+2, len(s.global))
	defer dp.Release()
	kept, _ := s.screen.Apply(updates)
	if len(kept) == 0 {
		return fmt.Errorf("fedsim: the norm screen rejected all %d updates", len(updates))
	}
	var published tensor.Vector
	if s.dp != nil {
		published = s.global.Clone()
	}
	if err := s.strat.Aggregate(s.global, kept); err != nil {
		return err
	}
	if s.dp != nil {
		dp.Apply(s.global, published, len(kept))
	}
	lrRound := s.round
	s.round++
	now := s.clock.Now()
	s.cur.Round = s.round
	s.cur.VTime = now
	s.cur.LR = s.cfg.Schedule.LR(lrRound)
	s.cur.BufferFillSec = now - s.lastAggTime
	s.lastAggTime = now
	if len(losses) > 0 {
		var sum float64
		for _, l := range losses {
			sum += l
		}
		s.cur.MeanLoss = sum / float64(len(losses))
	}
	if s.cfg.EvalEvery > 0 && s.round%s.cfg.EvalEvery == 0 {
		metric, err := s.evaluate()
		if err != nil {
			return err
		}
		s.cur.Metric = metric
	}
	s.report.Rounds = append(s.report.Rounds, s.cur)
	s.cur = RoundStat{Metric: math.NaN()}
	if s.cfg.HaltAtRound > 0 && s.round == s.cfg.HaltAtRound && s.cfg.HaltDurationSec > 0 {
		s.haltUntil = now + s.cfg.HaltDurationSec
	}
	return nil
}

// evaluate scores the global model on the held-out set.
func (s *sim) evaluate() (float64, error) {
	if s.env.EvalSet == nil || s.env.EvalSet.Len() == 0 {
		return math.NaN(), fmt.Errorf("fedsim: evaluation requested without an eval set")
	}
	if err := s.evalModel.SetParams(s.global); err != nil {
		return math.NaN(), err
	}
	metric := s.cfg.Metric
	if metric == "" {
		metric = model.MetricAUPR
	}
	return model.Eval(s.evalModel, s.env.EvalSet, metric)
}

// finalize stamps the report's terminal fields.
func (s *sim) finalize() {
	s.report.FinalVTime = s.clock.Now()
	if last, ok := s.report.LastEvaluated(); ok {
		s.report.FinalMetric = last.Metric
	} else {
		s.report.FinalMetric = math.NaN()
	}
	for _, r := range s.report.Rounds {
		s.report.TotalSucceeded += r.Succeeded
		s.report.TotalInterrupted += r.Interrupted
		s.report.TotalStale += r.Stale
		s.report.TotalFailed += r.Failed
		s.report.TotalStragglers += r.Stragglers
	}
	// Outcomes recorded after the last aggregation live in s.cur.
	s.report.TotalSucceeded += s.cur.Succeeded
	s.report.TotalInterrupted += s.cur.Interrupted
	s.report.TotalStale += s.cur.Stale
	s.report.TotalFailed += s.cur.Failed
	s.report.TotalStragglers += s.cur.Stragglers
}

// runAsync is the FedBuff event loop: the leader pops window-start and
// task-completion events in virtual-time order, keeps Concurrency tasks in
// flight, buffers completed updates, and aggregates every BufferSize
// arrivals with a staleness limit (§3.4).
func (s *sim) runAsync() error {
	for {
		if reason, stop := s.hardStopReached(); stop {
			s.report.StopReason = reason
			return s.drainInflight()
		}
		ev, ok := s.queue.Pop()
		if !ok {
			s.report.StopReason = "trace exhausted"
			return s.drainInflight()
		}
		if ev.Time > s.clock.Now() {
			if err := s.clock.AdvanceTo(ev.Time); err != nil {
				return err
			}
		}
		switch p := ev.Payload.(type) {
		case availability.Window:
			s.pushNextWindow()
			s.ready = append(s.ready, p)
		case *task:
			if err := s.completeAsync(p); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fedsim: unexpected event payload %T", p)
		}
		s.fillSlots()
	}
}

// fillSlots dispatches from the ready pool up to the concurrency limit,
// respecting outage halts and expired windows.
func (s *sim) fillSlots() {
	now := s.clock.Now()
	if now < s.haltUntil {
		return
	}
	for s.inflight < s.cfg.Concurrency && len(s.ready) > 0 {
		w := s.ready[0]
		s.ready = s.ready[1:]
		if w.End <= now || s.busy(w.ClientID, now) {
			continue
		}
		t := s.dispatch(w)
		if t == nil {
			continue
		}
		s.inflight++
		end := t.dispatched + t.duration
		if t.interrupted {
			end = t.window.End
		}
		s.queue.Push(end, t)
	}
}

// completeAsync processes a finished task: outcome classification, buffer
// insertion, and aggregation when the buffer fills.
func (s *sim) completeAsync(t *task) error {
	s.inflight--
	s.chargeCompute(t)
	switch {
	case t.failed:
		s.cur.Failed++
	case t.interrupted:
		s.cur.Interrupted++
	default:
		res := <-t.future
		s.snaps.release(t.baseRound)
		if res.err != nil {
			s.cur.Failed++
			return nil
		}
		staleness := s.round - t.baseRound
		if s.cfg.MaxStaleness > 0 && staleness > s.cfg.MaxStaleness {
			s.cur.Stale++
			return nil
		}
		s.cur.Succeeded++
		s.buffer = append(s.buffer, aggregator.Update{
			ClientID:  t.clientID,
			Delta:     res.delta,
			Weight:    res.weight,
			Staleness: staleness,
		})
		s.bufferLosses = append(s.bufferLosses, res.loss)
		if len(s.buffer) >= s.cfg.BufferSize {
			return s.aggregate()
		}
	}
	return nil
}

// drainInflight consumes outstanding futures so the executor pool can shut
// down cleanly; their results are discarded (lost work at job stop).
func (s *sim) drainInflight() error {
	// Outstanding completion events still hold futures.
	for {
		ev, ok := s.queue.Pop()
		if !ok {
			return nil
		}
		if t, isTask := ev.Payload.(*task); isTask && t.future != nil {
			<-t.future
			s.snaps.release(t.baseRound)
		}
	}
}

// runSync is the FedAvg round loop with over-commitment: each round selects
// CohortSize×OverCommit available clients, waits for the first CohortSize
// completions within the deadline, aggregates them, and throws away
// stragglers (§3.4, §5 "our sync mode ... uses client over-commitment to
// handle dropouts").
func (s *sim) runSync() error {
	for {
		if reason, stop := s.hardStopReached(); stop {
			s.report.StopReason = reason
			return nil
		}
		progressed, err := s.runSyncRound()
		if err != nil {
			return err
		}
		if !progressed {
			s.report.StopReason = "trace exhausted"
			return nil
		}
	}
}

// gatherCohort selects the over-committed cohort, advancing virtual time
// through window arrivals as needed.
func (s *sim) gatherCohort(want int) ([]*task, error) {
	var tasks []*task
	// Bail out when the trace cycles without yielding eligible clients
	// (e.g. cohort size beyond the population) instead of spinning.
	guard := 20*len(s.env.Trace.Windows()) + 1000
	for len(tasks) < want && guard > 0 {
		guard--
		now := s.clock.Now()
		// Consume the ready pool first.
		for len(tasks) < want && len(s.ready) > 0 {
			w := s.ready[0]
			s.ready = s.ready[1:]
			if w.End <= now || s.busy(w.ClientID, now) {
				continue
			}
			if now < s.haltUntil {
				continue // outage: windows pass by unused
			}
			if t := s.dispatch(w); t != nil {
				tasks = append(tasks, t)
			}
		}
		if len(tasks) >= want {
			break
		}
		// Wait for the next arrival.
		ev, ok := s.queue.Pop()
		if !ok {
			break // trace exhausted; proceed with what we have
		}
		if ev.Time > s.clock.Now() {
			if err := s.clock.AdvanceTo(ev.Time); err != nil {
				return nil, err
			}
		}
		w, isWindow := ev.Payload.(availability.Window)
		if !isWindow {
			return nil, fmt.Errorf("fedsim: unexpected sync event payload %T", ev.Payload)
		}
		s.pushNextWindow()
		s.ready = append(s.ready, w)
		if s.clock.Now() >= maxVirtualSec {
			break
		}
	}
	return tasks, nil
}

// runSyncRound executes one FedAvg round; it reports false when the trace
// ran dry before any client could be selected.
func (s *sim) runSyncRound() (bool, error) {
	want := int(math.Ceil(float64(s.cfg.CohortSize) * s.cfg.OverCommit))
	tasks, err := s.gatherCohort(want)
	if err != nil {
		return false, err
	}
	if len(tasks) == 0 {
		return false, nil
	}
	deadline := s.clock.Now() + s.cfg.RoundDeadlineSec

	// Classify completions.
	type done struct {
		t   *task
		end float64
	}
	var completions []done
	for _, t := range tasks {
		end := t.dispatched + t.duration
		if t.interrupted {
			end = t.window.End
		}
		completions = append(completions, done{t: t, end: end})
	}
	sort.SliceStable(completions, func(i, j int) bool { return completions[i].end < completions[j].end })

	aggregated := 0
	lastAggEnd := s.clock.Now()
	for _, d := range completions {
		s.chargeCompute(d.t)
		switch {
		case d.t.failed:
			s.cur.Failed++
		case d.t.interrupted:
			s.cur.Interrupted++
		default:
			res := <-d.t.future
			s.snaps.release(d.t.baseRound)
			if res.err != nil {
				s.cur.Failed++
				continue
			}
			if aggregated < s.cfg.CohortSize && d.end <= deadline {
				s.cur.Succeeded++
				s.buffer = append(s.buffer, aggregator.Update{
					ClientID: d.t.clientID,
					Delta:    res.delta,
					Weight:   res.weight,
				})
				s.bufferLosses = append(s.bufferLosses, res.loss)
				aggregated++
				if d.end > lastAggEnd {
					lastAggEnd = d.end
				}
			} else {
				// Straggler: completed fine but past the target count
				// or deadline; FedAvg throws the work away.
				s.cur.Stragglers++
			}
		}
	}
	// The server closes the round when the target count arrives, or at the
	// deadline when the cohort came up short.
	roundEnd := deadline
	if aggregated >= s.cfg.CohortSize {
		roundEnd = lastAggEnd
	}
	if aggregated == 0 {
		// A whole cohort produced nothing; advance past the deadline so
		// the job keeps moving instead of spinning on one instant.
		if roundEnd > s.clock.Now() {
			if err := s.clock.AdvanceTo(roundEnd); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if roundEnd < s.clock.Now() {
		roundEnd = s.clock.Now()
	}
	if err := s.clock.AdvanceTo(roundEnd); err != nil {
		return false, err
	}
	if err := s.aggregate(); err != nil {
		return false, err
	}
	return true, nil
}
