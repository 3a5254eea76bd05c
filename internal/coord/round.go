package coord

import (
	"fmt"
	"sync"
	"time"

	"flint/internal/aggregator"
	"flint/internal/round"
)

// Phase is a round's position in its lifecycle state machine.
type Phase string

// The round lifecycle: open → aggregating → committed | abandoned, plus
// open → abandoned. An open round hands its task to devices and collects
// their updates; once the round rule says it is ready it aggregates and
// commits a new version, or it is abandoned — overdue below quorum, or on
// an aggregate or publish failure.
const (
	PhaseOpen        Phase = "open"
	PhaseAggregating Phase = "aggregating"
	PhaseCommitted   Phase = "committed"
	PhaseAbandoned   Phase = "abandoned"
)

// Terminal reports whether the phase ends the round.
func (p Phase) Terminal() bool { return p == PhaseCommitted || p == PhaseAbandoned }

// Round is one unit of the training lifecycle: a sync FedAvg round or one
// async FedBuff buffer generation. Its assignment, acceptance, readiness
// and abandonment verdicts are the round rule's (internal/round, shared
// with the simulator), asked with the wall clock against Deadline. It
// synchronizes its own mutable state (phase, assignments, update buffer)
// under a private mutex whose critical sections are all O(1): the
// task-serving path and the ingest worker touch it concurrently, and the
// commit pipeline's only holds are the phase flips at the edges of
// aggregation — never the O(K·dim) work between them, so serving never
// stalls behind a commit.
type Round struct {
	// ID is a monotonically increasing round number (1-based).
	ID uint64
	// BaseVersion is the published model version the round trains from.
	BaseVersion int
	// Rule holds Target (K: updates needed to aggregate immediately),
	// Quorum (the minimum accepted at the deadline) and MaxAssign (how
	// many devices may hold this round's task).
	round.Rule
	// Deadline bounds the round's wall-clock lifetime.
	Deadline time.Time
	// Opened is when the round opened.
	Opened time.Time

	mu    sync.Mutex
	phase Phase
	// assignedIDs records which devices hold this round's task, so
	// terminal cleanup releases exactly those instead of scanning the
	// whole registry.
	assignedIDs []int64
	updates     []aggregator.Update
	// screenedNorm counts updates the commit pipeline's norm screen
	// rejected before the reduce; epsilonSpent is the cumulative privacy
	// budget after this round's DP noise (0 when DP is off). Both are
	// stamped by the commit pipeline and surface in the round summary.
	screenedNorm int
	epsilonSpent float64
}

// newRound opens a round in PhaseOpen.
func newRound(id uint64, baseVersion int, rule round.Rule, opened time.Time, deadline time.Time) *Round {
	return &Round{
		ID:          id,
		BaseVersion: baseVersion,
		Rule:        rule,
		Opened:      opened,
		Deadline:    deadline,
		phase:       PhaseOpen,
		updates:     make([]aggregator.Update, 0, rule.Target),
	}
}

// Phase returns the current lifecycle phase.
func (r *Round) Phase() Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// Assigned returns how many devices hold this round's task.
func (r *Round) Assigned() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.assignedIDs)
}

// Collected returns how many updates the round holds.
func (r *Round) Collected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.updates)
}

// overdue reports whether the round's deadline has passed at now.
func (r *Round) overdue(now time.Time) bool { return !now.Before(r.Deadline) }

// assignable reports whether the round can hand out another task at now —
// the task path's cheap pre-check; tryAssign re-validates atomically.
func (r *Round) assignable(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase == PhaseOpen && r.Assign(len(r.assignedIDs), r.overdue(now))
}

// tryAssign atomically asks the rule and records one handed-out task. It
// returns false when the round cannot hand out a task (full, no longer
// open, or past deadline) — concurrent requesters race fairly on the
// budget here, with no coordinator-wide lock.
func (r *Round) tryAssign(deviceID int64, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != PhaseOpen || !r.Assign(len(r.assignedIDs), r.overdue(now)) {
		return false
	}
	r.assignedIDs = append(r.assignedIDs, deviceID)
	return true
}

// recordUpdate buffers one device update arriving at now. An open round
// takes it while the rule accepts: before the deadline and below the
// target. Async buffers take carry-over updates from devices assigned in
// a previous generation before anyone joins the new one. The caller has
// already validated round ID and staleness.
func (r *Round) recordUpdate(u aggregator.Update, now time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != PhaseOpen || !r.Accept(len(r.updates), r.overdue(now)) {
		return fmt.Errorf("coord: round %d not accepting updates (%s, %d of %d)", r.ID, r.phase, len(r.updates), r.Target)
	}
	r.updates = append(r.updates, u)
	return nil
}

// ready reports whether the open round should aggregate at now: it
// reached its target, or its deadline passed with quorum met.
func (r *Round) ready(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase == PhaseOpen && r.Ready(len(r.updates), r.overdue(now))
}

// beginAggregate flips the round into PhaseAggregating and hands the
// caller its update buffer. After the flip no new update can land (and no
// new assignment succeeds), so the returned slice is stable without
// holding any lock through the aggregation itself. ok is false when the
// round is no longer open — e.g. a second committer raced here first.
func (r *Round) beginAggregate() (updates []aggregator.Update, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != PhaseOpen {
		return nil, false
	}
	r.phase = PhaseAggregating
	return r.updates, true
}

// noteScreened records how many updates the norm screen rejected.
func (r *Round) noteScreened(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.screenedNorm = n
}

// noteEpsilon records the cumulative privacy budget after this round's
// DP noise.
func (r *Round) noteEpsilon(eps float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epsilonSpent = eps
}

// conclude moves an aggregating round to its terminal phase (committed
// or abandoned).
func (r *Round) conclude(to Phase) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != PhaseAggregating || !to.Terminal() {
		return fmt.Errorf("coord: round %d: illegal transition %s → %s", r.ID, r.phase, to)
	}
	r.phase = to
	return nil
}

// expireIfStarved atomically asks the rule whether the open round is
// overdue and not ready, and abandons it when so. The check and the
// terminal flip share one critical section, so an update that reached
// quorum between an unlocked check and this call can never be silently
// dropped by the abandonment — the caller sees false and commits instead.
func (r *Round) expireIfStarved(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase != PhaseOpen || !r.overdue(now) || r.Ready(len(r.updates), true) {
		return false
	}
	r.phase = PhaseAbandoned
	return true
}

// releasePayloads returns every buffered update's pooled wire payload to
// the codec pool and drops the references. Called exactly once, after the
// round goes terminal: aggregation (if any) has finished, so nothing can
// still be reading the wire bytes. Idempotent via Payload.Release.
func (r *Round) releasePayloads() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.updates {
		if p := r.updates[i].Payload; p != nil {
			p.Release()
			r.updates[i].Payload = nil
		}
	}
}

// takeAssigned returns a copy of the device IDs holding this round's
// task, for terminal cleanup (copied so the registry release loop runs
// without the round lock).
func (r *Round) takeAssigned() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.assignedIDs))
	copy(out, r.assignedIDs)
	return out
}

// status snapshots the externally visible round state in one critical
// section (for /v1/status, which must not observe torn counts).
func (r *Round) status() RoundStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RoundStatus{
		ID:        r.ID,
		Phase:     r.phase,
		Base:      r.BaseVersion,
		Assigned:  len(r.assignedIDs),
		Collected: len(r.updates),
		Target:    r.Target,
		Quorum:    r.Quorum,
		Deadline:  r.Deadline,
	}
}

// RoundSummary is the retained record of a finished round.
type RoundSummary struct {
	ID          uint64        `json:"id"`
	Phase       Phase         `json:"phase"`
	BaseVersion int           `json:"base_version"`
	NewVersion  int           `json:"new_version,omitempty"`
	Assigned    int           `json:"assigned"`
	Updates     int           `json:"updates"`
	Duration    time.Duration `json:"duration_ns"`
	// ScreenedNorm counts updates the norm screen rejected before the
	// reduce (still included in Updates — they were collected).
	ScreenedNorm int `json:"screened_norm,omitempty"`
	// EpsilonSpent is the cumulative (ε, δ) privacy budget after this
	// round's DP noise; 0 when DP is off.
	EpsilonSpent float64 `json:"epsilon_spent,omitempty"`
}

func (r *Round) summary(newVersion int, now time.Time) RoundSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RoundSummary{
		ID:           r.ID,
		Phase:        r.phase,
		BaseVersion:  r.BaseVersion,
		NewVersion:   newVersion,
		Assigned:     len(r.assignedIDs),
		Updates:      len(r.updates),
		Duration:     now.Sub(r.Opened),
		ScreenedNorm: r.screenedNorm,
		EpsilonSpent: r.epsilonSpent,
	}
}
