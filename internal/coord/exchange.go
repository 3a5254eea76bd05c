package coord

import (
	"errors"
	"fmt"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/model"
)

// ErrTierHalted is what a PartialExchange returns while the shard
// tier's membership is unhealthy: the paper's §3.4 halt-until-healthy
// rule applied horizontally. The shard keeps its reduced partial and
// retries until the tier recovers.
var ErrTierHalted = errors.New("coord: shard tier halted (membership unhealthy)")

// PartialCommit is one shard's reduced round contribution on the tier
// exchange: the weighted mean of its cohort's deltas, already screened
// and reduced by the shard's fused payload kernels, carried as a
// wire-form codec blob (raw64, so the leader's fold starts from the
// exact partial — no quantization between tiers). Weight is the
// cohort's total aggregation weight, so the leader's cross-shard fold
// weights each partial by the examples behind it.
type PartialCommit struct {
	// ShardID is the submitting replica's ring index.
	ShardID int
	// Job names the tenant the partial belongs to ("" = default job).
	Job string
	// Round is the shard-local round that produced the partial.
	Round uint64
	// BaseVersion is the global version the cohort trained from; the
	// leader derives cross-shard staleness from it.
	BaseVersion int
	// Updates is how many device updates the partial reduces.
	Updates int
	// Weight is the cohort's summed aggregation weight.
	Weight float64
	// Blob is the partial in codec wire form.
	Blob []byte
}

// GlobalInstall is the leader's response to a partial: the tier's
// current global version, with the full parameter vector as a codec
// blob when the submitting shard is behind (Blob is empty when the
// shard's base already is the current version).
type GlobalInstall struct {
	Version int
	Blob    []byte
}

// PartialExchange ships shard partials to the tier's round leader and
// returns the resulting global state. Implementations must be safe for
// concurrent use; they return ErrTierHalted while shard membership is
// unhealthy.
type PartialExchange interface {
	SubmitPartial(pc PartialCommit) (GlobalInstall, error)
}

// exchangeCounters are pre-registered alongside the serving counters so
// a shard's status page is fully shaped before its first partial.
var exchangeCounters = []string{
	"partials_reduced", "partial_exchange_retries",
	"partial_exchange_halted", "global_installs", "global_install_noop",
	"global_install_error",
}

// partialLocked is the hierarchical half of the commit pipeline: instead
// of folding the round's updates into this replica's params, it reduces
// them — through the same parallel fused payload kernels, into a zeroed
// scratch vector — to the cohort's weighted mean, encodes that partial
// as a raw64 codec blob, and hands it to the exchange goroutine. The
// round parks in PhaseAggregating until the leader's response installs
// the next global version (or confirms the current one). Callers hold
// mu; r must be the serving round and must have passed beginAggregate.
func (c *Coordinator) partialLocked(r *Round, bs *broadcastState, updates []aggregator.Update, now time.Time) {
	partial := c.scratch.get()
	partial.Fill(0)
	if err := c.strategy.Aggregate(partial, updates); err != nil {
		c.scratch.put(partial)
		counter := "round_aggregate_error"
		if errors.Is(err, aggregator.ErrNonFinite) {
			counter = "round_aggregate_nonfinite"
		}
		// The reduction target was scratch, so unlike a local commit
		// there is nothing to roll back — drop the round and keep
		// serving.
		c.abortCommitLocked(r, bs, nil, counter, now)
		return
	}
	var weight float64
	for _, u := range updates {
		if u.Weight > 0 {
			weight += u.Weight
		} else {
			weight++
		}
	}
	blob, err := codec.Encode(partial, codec.RawF64)
	c.scratch.put(partial)
	if err != nil {
		c.abortCommitLocked(r, bs, nil, "round_publish_error", now)
		return
	}
	// The partial owns everything the leader needs; the buffered wire
	// payloads are dead weight during the (possibly long, possibly
	// halted) exchange, so they go back to the codec pool now rather
	// than at round termination. Release is idempotent, so the usual
	// release point in finishLocked stays correct.
	r.releasePayloads()
	c.counters.Counter("partials_reduced").Inc()
	c.counters.Counter("updates_aggregated").Add(int64(len(updates)))
	pc := PartialCommit{
		ShardID:     c.cfg.ShardID,
		Job:         c.cfg.ExchangeJob,
		Round:       r.ID,
		BaseVersion: bs.version,
		Updates:     len(updates),
		Weight:      weight,
		Blob:        blob,
	}
	c.exchWG.Add(1)
	go c.exchangeLoop(r, pc)
}

// exchangeLoop ships one parked round's partial to the leader, retrying
// through tier halts with bounded backoff — the shard-side half of
// halt-until-healthy: assignment on this shard stays frozen (the parked
// round serves no tasks) until the tier accepts the partial, then the
// install reopens serving on the new global version.
func (c *Coordinator) exchangeLoop(r *Round, pc PartialCommit) {
	defer c.exchWG.Done()
	backoff := 25 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		inst, err := c.cfg.Exchange.SubmitPartial(pc)
		if err == nil {
			c.installGlobal(r, inst)
			return
		}
		c.counters.Counter("partial_exchange_retries").Inc()
		if errors.Is(err, ErrTierHalted) {
			c.counters.Counter("partial_exchange_halted").Inc()
		}
		select {
		case <-c.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// installGlobal completes a parked round with the leader's response:
// when the tier advanced, the returned global params replace this
// replica's (bit-identical to the leader — the install blob is raw64),
// a fresh broadcast plane is built, and the store/version/persist
// machinery runs exactly as a local commit's publish stages; when the
// tier did not advance (the leader is still buffering partials), the
// round concludes on the unchanged plane. Either way the successor
// round opens and assignment resumes.
//
// The install runs under mu with the shard's round parked, so it copies
// each vector once: the blob is validated as a view (CRC and structure),
// decoded straight into the global params, and stored as the received
// bytes behind the checkpoint header — which is exactly what model.Save
// would write for those params, without re-encoding or re-checksumming
// them. Only a raw64, non-delta blob of this model's dimension installs;
// anything else is rejected before the params are touched.
func (c *Coordinator) installGlobal(r *Round, inst GlobalInstall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return
	}
	now := time.Now()
	sv := c.serving.Load()
	if sv.round != r {
		c.counters.Counter("round_fsm_error").Inc()
		return
	}
	bs := sv.bcast
	if inst.Version <= bs.version || len(inst.Blob) == 0 {
		// No global advance yet: the partial is in the leader's buffer.
		c.counters.Counter("global_install_noop").Inc()
		if err := r.conclude(PhaseCommitted); err != nil {
			c.counters.Counter("round_fsm_error").Inc()
		}
		c.counters.Counter("rounds_committed").Inc()
		c.finishLocked(r, 0, bs, now)
		return
	}
	view, err := codec.ParsePayload(inst.Blob)
	if err == nil && (view.Scheme().Kind != codec.KindRawF64 || view.IsDelta() || view.Dim() != c.dim) {
		err = fmt.Errorf("coord: install v%d is a %s blob of %d params (delta %t), want raw64 of %d",
			inst.Version, view.Scheme(), view.Dim(), view.IsDelta(), c.dim)
	}
	var ckpt []byte
	if err == nil {
		ckpt, err = model.Frame(c.global.Kind(), inst.Blob)
	}
	if err != nil {
		// A malformed install is a publish failure: stay on the old
		// plane (params untouched) and drop the round; the next partial
		// fetches a fresh install.
		c.counters.Counter("global_install_error").Inc()
		c.abortCommitLocked(r, bs, nil, "round_publish_error", now)
		return
	}
	view.CopyRange(c.global.Params(), 0, c.dim)
	if !c.publishLocked(r, bs, inst.Version, ckpt, now) {
		// publishLocked rolled the params back to the old plane's
		// published snapshot and dropped the round.
		return
	}
	c.counters.Counter("global_installs").Inc()
}
