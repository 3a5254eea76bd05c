package coord

import (
	"errors"
	"time"

	"flint/internal/aggregator"
	"flint/internal/codec"
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

// GlobalInstall is the leader's answer once a partial's generation has
// folded: the tier's version and its params as a raw64 blob; a version
// not above the partial's base reports a failed fold. The zero value
// means the leader holds the partial: sent again, it waits for the fold.
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
	"partial_exchange_halted", "global_installs", "global_install_error",
}

// partialLocked is the hierarchical half of the commit pipeline: instead
// of folding the round's updates into this replica's params, it reduces
// them — through the same parallel fused payload kernels, into a zeroed
// version buffer — to the cohort's weighted mean, seals that buffer into
// the partial's raw64 codec blob, and hands it to the exchange
// goroutine. The round parks in PhaseAggregating until the leader's
// answer installs the generation's fold. Callers hold mu; r must be the
// serving round and must have passed beginAggregate.
func (c *Coordinator) partialLocked(r *Round, bs *broadcastState, updates []aggregator.Update, now time.Time) {
	partial := codec.NewVersionBuf(nil, c.dim)
	if err := c.strategy.Aggregate(partial.Params(), updates); err != nil {
		counter := "round_aggregate_error"
		if errors.Is(err, aggregator.ErrNonFinite) {
			counter = "round_aggregate_nonfinite"
		}
		c.abortCommitLocked(r, bs, counter, now)
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
	partial.Seal()
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
		Blob:        partial.Bytes(),
	}
	c.exchWG.Add(1)
	go c.exchangeLoop(r, pc)
}

// exchangeLoop ships one parked round's partial to the leader, retrying
// through tier halts with bounded backoff (the leader never counts a
// repeat twice) — the shard-side half of halt-until-healthy: the parked
// round serves no tasks until the tier folds its generation, then the
// install reopens serving on the leader's version.
func (c *Coordinator) exchangeLoop(r *Round, pc PartialCommit) {
	defer c.exchWG.Done()
	backoff := 25 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		inst, err := c.cfg.Exchange.SubmitPartial(pc)
		if err == nil && len(inst.Blob) == 0 { // held: the repeat waits for the fold
			inst, err = c.cfg.Exchange.SubmitPartial(pc)
		}
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
		backoff = min(2*backoff, maxBackoff)
	}
}

// installGlobal completes a parked round with the leader's answer: the
// returned global params become this replica's next version
// (bit-identical to the leader — the install blob is raw64), a fresh
// broadcast plane is built, and the store/version/persist machinery runs
// exactly as a local commit's publish stages. An install that does not
// advance reports a failed fold: the round is dropped as a failed local
// commit is.
//
// The install runs under mu with the shard's round parked, and copies
// the parameters once: the blob is validated (CRC and structure) and
// copied verbatim behind the checkpoint header of a fresh version
// buffer, which is then the published params, the raw64 task blob and
// the stored checkpoint — exactly what model.Save would write for those
// params. Only a raw64, non-delta blob of this model's dimension
// installs; anything else drops the buffer and the round.
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
	if inst.Version <= bs.version {
		c.abortCommitLocked(r, bs, "round_aggregate_error", now)
		return
	}
	buf := codec.NewVersionBuf(c.ckptHdr, c.dim)
	if err := buf.SetBlob(inst.Blob); err != nil {
		// A malformed install is a publish failure: stay on the old
		// plane and drop the round; the next generation's install
		// replaces it.
		c.counters.Counter("global_install_error").Inc()
		c.abortCommitLocked(r, bs, "round_publish_error", now)
		return
	}
	if c.publishLocked(r, bs, inst.Version, buf, now) {
		c.counters.Counter("global_installs").Inc()
	}
}
