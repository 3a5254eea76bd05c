package coord

import (
	"testing"
	"time"

	"flint/internal/aggregator"
	"flint/internal/round"
	"flint/internal/tensor"
)

func testRound(target, quorum, maxAssign int) *Round {
	opened := time.Unix(1000, 0)
	rule := round.Rule{Target: target, Quorum: quorum, MaxAssign: maxAssign}
	return newRound(1, 1, rule, opened, opened.Add(time.Minute))
}

func upd(id int64) aggregator.Update {
	return aggregator.Update{ClientID: id, Delta: tensor.Vector{0}, Weight: 1}
}

func TestRoundLifecycleHappyPath(t *testing.T) {
	r := testRound(2, 1, 4)
	if r.Phase() != PhaseOpen {
		t.Fatalf("new round phase = %s, want open", r.Phase())
	}
	now := r.Opened
	if !r.assignable(now) {
		t.Fatal("fresh round should be assignable")
	}
	if !r.tryAssign(1, now) {
		t.Fatal("assignable round refused an assignment")
	}
	if err := r.recordUpdate(upd(1), now); err != nil {
		t.Fatal(err)
	}
	if r.Phase() != PhaseOpen {
		t.Fatalf("after first update phase = %s, want open", r.Phase())
	}
	if r.ready(now) {
		t.Fatal("round below target and deadline should not be ready")
	}
	if err := r.recordUpdate(upd(2), now); err != nil {
		t.Fatal(err)
	}
	if !r.ready(now) {
		t.Fatal("round at target should be ready")
	}
	if _, ok := r.beginAggregate(); !ok {
		t.Fatal("ready open round refused to aggregate")
	}
	if err := r.conclude(PhaseCommitted); err != nil {
		t.Fatal(err)
	}
	if !r.Phase().Terminal() {
		t.Fatal("committed should be terminal")
	}
}

func TestRoundIllegalTransitions(t *testing.T) {
	r := testRound(2, 1, 4)
	// Straight to committed from open is illegal.
	if err := r.conclude(PhaseCommitted); err == nil {
		t.Fatal("open → committed should be rejected")
	}
	// An aggregating round only concludes into a terminal phase.
	agg := testRound(2, 1, 4)
	if _, ok := agg.beginAggregate(); !ok {
		t.Fatal("open round refused to aggregate")
	}
	if _, ok := agg.beginAggregate(); ok {
		t.Fatal("second aggregation of one round accepted")
	}
	for _, p := range []Phase{PhaseOpen, PhaseAggregating} {
		if err := agg.conclude(p); err == nil {
			t.Fatalf("aggregating → %s should be rejected", p)
		}
	}
	// Terminal rounds reject everything.
	if !r.expireIfStarved(r.Deadline) {
		t.Fatal("empty overdue round was not abandoned")
	}
	for _, p := range []Phase{PhaseOpen, PhaseAggregating, PhaseCommitted, PhaseAbandoned} {
		if err := r.conclude(p); err == nil {
			t.Fatalf("abandoned → %s should be rejected", p)
		}
	}
	if _, ok := r.beginAggregate(); ok {
		t.Fatal("abandoned round began aggregating")
	}
	if err := r.recordUpdate(upd(1), r.Opened); err == nil {
		t.Fatal("abandoned round accepted an update")
	}
	if r.tryAssign(1, r.Opened) {
		t.Fatal("abandoned round accepted an assignment")
	}
}

func TestRoundOpenAcceptsCarryOverUpdate(t *testing.T) {
	// Async buffers ingest updates from devices assigned in a previous
	// generation before anyone joins the new round.
	r := testRound(4, 1, 8)
	if err := r.recordUpdate(upd(9), r.Opened); err != nil {
		t.Fatal(err)
	}
	if r.Phase() != PhaseOpen || r.Collected() != 1 {
		t.Fatalf("phase = %s with %d updates, want open with 1", r.Phase(), r.Collected())
	}
}

func TestRoundQuorumAndDeadline(t *testing.T) {
	r := testRound(4, 2, 8)
	now := r.Opened
	after := r.Deadline.Add(time.Second)

	if err := r.recordUpdate(upd(1), now); err != nil {
		t.Fatal(err)
	}
	// One update: below quorum — not ready, before or past the deadline.
	if r.ready(now) || r.ready(after) {
		t.Fatal("below-quorum round should not be ready")
	}

	if err := r.recordUpdate(upd(2), now); err != nil {
		t.Fatal(err)
	}
	// Quorum met: ready at the deadline, not before it.
	if r.ready(now) {
		t.Fatal("quorum-but-below-target round is not ready before deadline")
	}
	if !r.ready(r.Deadline) || !r.ready(after) {
		t.Fatal("quorum round should be ready at its deadline")
	}
}

// TestRoundRefusesOverdueUpdate: the deadline is exact. An update that
// arrives at or past it is refused, and so is one past the target; the
// round's count is unchanged.
func TestRoundRefusesOverdueUpdate(t *testing.T) {
	r := testRound(2, 1, 4)
	if err := r.recordUpdate(upd(1), r.Deadline.Add(-time.Nanosecond)); err != nil {
		t.Fatalf("update just before the deadline refused: %v", err)
	}
	if err := r.recordUpdate(upd(2), r.Deadline); err == nil {
		t.Fatal("update at the deadline accepted")
	}
	if err := r.recordUpdate(upd(3), r.Deadline.Add(time.Second)); err == nil {
		t.Fatal("update past the deadline accepted")
	}
	if err := r.recordUpdate(upd(4), r.Opened); err != nil {
		t.Fatal(err)
	}
	if err := r.recordUpdate(upd(5), r.Opened); err == nil {
		t.Fatal("update past the target accepted")
	}
	if r.Collected() != 2 || r.Phase() != PhaseOpen {
		t.Fatalf("round holds %d updates in %s, want 2 in open", r.Collected(), r.Phase())
	}
}

func TestRoundAssignmentBudget(t *testing.T) {
	r := testRound(2, 1, 2)
	now := r.Opened
	for i := 0; i < 2; i++ {
		if !r.assignable(now) {
			t.Fatalf("round should be assignable at %d/%d", r.Assigned(), r.MaxAssign)
		}
		if !r.tryAssign(int64(i+1), now) {
			t.Fatalf("assignment %d refused within budget", i+1)
		}
	}
	if r.assignable(now) {
		t.Fatal("round past MaxAssign should not be assignable")
	}
	if r.tryAssign(3, now) {
		t.Fatal("round past MaxAssign accepted an assignment")
	}
	if r.tryAssign(3, r.Deadline) {
		t.Fatal("round at deadline accepted an assignment")
	}
}

func TestRoundExpireIfStarvedRecheck(t *testing.T) {
	r := testRound(4, 2, 8)
	after := r.Deadline.Add(time.Second)

	// Before the deadline nothing expires, regardless of updates.
	if r.expireIfStarved(r.Opened) {
		t.Fatal("round expired before its deadline")
	}
	// At quorum the abandonment must refuse — the caller commits instead
	// (this is the recheck that protects an update accepted between the
	// watchdog's unlocked expiry check and the terminal flip).
	if err := r.recordUpdate(upd(1), r.Opened); err != nil {
		t.Fatal(err)
	}
	if err := r.recordUpdate(upd(2), r.Opened); err != nil {
		t.Fatal(err)
	}
	if r.expireIfStarved(after) {
		t.Fatal("quorum-complete round was abandoned")
	}
	if r.Phase() != PhaseOpen {
		t.Fatalf("refused expiry mutated phase to %s", r.Phase())
	}

	// Below quorum past the deadline it concludes atomically.
	starved := testRound(4, 2, 8)
	if err := starved.recordUpdate(upd(1), starved.Opened); err != nil {
		t.Fatal(err)
	}
	if !starved.expireIfStarved(after) {
		t.Fatal("starved round did not expire")
	}
	if starved.Phase() != PhaseAbandoned {
		t.Fatalf("expired round phase = %s", starved.Phase())
	}
	// Terminal rounds report false, not a second abandonment.
	if starved.expireIfStarved(after) {
		t.Fatal("terminal round expired twice")
	}
}
