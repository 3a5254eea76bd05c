// Package round holds the one round rule both halves of the platform ask:
// the live server's round (coord.Round, wall clock) and the simulator's
// sync round and async buffer (fedsim, virtual clock) — the paper's
// "over-commit, take the first K, drop stragglers" (§3.4, §5).
//
// The rule is clock-free: its verdicts are over counts, and each caller
// says with its own clock whether the round is overdue (its deadline has
// passed). An overdue round that is not Ready is abandoned, so the quorum
// is compared in exactly one place. The package imports nothing under
// flint/.
package round

// Rule is one round's policy.
type Rule struct {
	// Target is K: accepted updates that make the round ready at once,
	// and the most it accepts.
	Target int
	// Quorum is the fewest accepted updates an overdue round commits
	// with; below it the round is abandoned.
	Quorum int
	// MaxAssign caps how many devices may hold the round's task.
	MaxAssign int
}

// Assign reports whether a round that has handed out assigned tasks may
// hand out another.
func (r Rule) Assign(assigned int, overdue bool) bool {
	return !overdue && assigned < r.MaxAssign
}

// Accept reports whether a round holding accepted updates takes one
// more; an update past the deadline or past the target is a straggler.
func (r Rule) Accept(accepted int, overdue bool) bool {
	return !overdue && accepted < r.Target
}

// Ready reports whether a round holding accepted updates aggregates now:
// it reached its target, or it is overdue with its quorum met.
func (r Rule) Ready(accepted int, overdue bool) bool {
	return accepted >= r.Target || overdue && accepted >= r.Quorum
}
