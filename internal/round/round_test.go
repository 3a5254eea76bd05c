package round

import "testing"

func TestRule(t *testing.T) {
	r := Rule{Target: 4, Quorum: 2, MaxAssign: 6}
	for _, tc := range []struct {
		n       int
		overdue bool
		assign  bool
		accept  bool
		ready   bool
	}{
		{0, false, true, true, false},
		{1, false, true, true, false},
		{1, true, false, false, false}, // abandoned: overdue below quorum
		{2, false, true, true, false},
		{2, true, false, false, true}, // quorum met at the deadline
		{3, true, false, false, true},
		{4, false, true, false, true}, // target: ready, no more accepted
		{4, true, false, false, true},
		{5, false, true, false, true},
		{6, false, false, false, true}, // assignment budget spent
	} {
		if got := r.Assign(tc.n, tc.overdue); got != tc.assign {
			t.Errorf("Assign(%d, %v) = %v, want %v", tc.n, tc.overdue, got, tc.assign)
		}
		if got := r.Accept(tc.n, tc.overdue); got != tc.accept {
			t.Errorf("Accept(%d, %v) = %v, want %v", tc.n, tc.overdue, got, tc.accept)
		}
		if got := r.Ready(tc.n, tc.overdue); got != tc.ready {
			t.Errorf("Ready(%d, %v) = %v, want %v", tc.n, tc.overdue, got, tc.ready)
		}
	}
}

// TestRuleQuorumOfOne: the simulator's sync round commits whatever
// arrived by the deadline and is abandoned only when nothing did.
func TestRuleQuorumOfOne(t *testing.T) {
	r := Rule{Target: 8, Quorum: 1, MaxAssign: 12}
	if r.Ready(0, true) {
		t.Fatal("an empty overdue round is abandoned, not ready")
	}
	if !r.Ready(1, true) {
		t.Fatal("one update at the deadline meets a quorum of 1")
	}
	if r.Ready(7, false) {
		t.Fatal("below target before the deadline is not ready")
	}
}
