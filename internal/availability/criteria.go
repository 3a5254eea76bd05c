package availability

import (
	"fmt"
	"math"
	"sort"
)

// Criteria is a participation filter over sessions (§3.2): device state
// (WiFi, battery, foreground is implicit in the session log) and session
// length are composed with AND semantics, as in Table 1's A∩B∩C row.
type Criteria struct {
	RequireWiFi        bool
	RequireBatteryHigh bool
	RequireModernOS    bool
	// MinSessionSec drops sessions too short to complete a task's
	// download/train/upload pipeline.
	MinSessionSec float64
}

// Admit reports whether a session passes the criteria.
func (c Criteria) Admit(s Session) bool {
	if c.RequireWiFi && !s.WiFi {
		return false
	}
	if c.RequireBatteryHigh && !s.BatteryHigh {
		return false
	}
	if c.RequireModernOS && !s.ModernOS {
		return false
	}
	if s.Duration() < c.MinSessionSec {
		return false
	}
	return true
}

// Apply filters the log, preserving order.
func Apply(sessions []Session, c Criteria) []Session {
	out := make([]Session, 0, len(sessions))
	for _, s := range sessions {
		if c.Admit(s) {
			out = append(out, s)
		}
	}
	return out
}

// Table1 holds the per-criterion availability fractions of the paper's
// Table 1, measured as the fraction of sessions admitted.
type Table1 struct {
	WiFi      float64 // criterion A
	Battery   float64 // criterion B
	ModernOS  float64 // criterion C
	Intersect float64 // A ∩ B ∩ C
}

// ComputeTable1 measures each criterion and their conjunction on the log.
func ComputeTable1(sessions []Session) (Table1, error) {
	if len(sessions) == 0 {
		return Table1{}, fmt.Errorf("availability: empty session log")
	}
	var t Table1
	n := float64(len(sessions))
	for _, s := range sessions {
		if s.WiFi {
			t.WiFi++
		}
		if s.BatteryHigh {
			t.Battery++
		}
		if s.ModernOS {
			t.ModernOS++
		}
		if s.WiFi && s.BatteryHigh && s.ModernOS {
			t.Intersect++
		}
	}
	t.WiFi /= n
	t.Battery /= n
	t.ModernOS /= n
	t.Intersect /= n
	return t, nil
}

// Window is one availability interval of a client.
type Window struct {
	ClientID   int64
	Device     string
	Start, End float64
}

// Trace is the per-client availability trace the simulator consumes: the
// paper's "pairs of start and end times during which a device can
// participate in FL training".
type Trace struct {
	windows  []Window // sorted by Start
	byClient map[int64][]Window
	horizon  float64
}

// BuildTrace converts an admitted session log into a trace.
func BuildTrace(sessions []Session) *Trace {
	t := &Trace{byClient: make(map[int64][]Window)}
	for _, s := range sessions {
		w := Window{ClientID: s.ClientID, Device: s.Device, Start: s.Start, End: s.End}
		t.windows = append(t.windows, w)
		t.byClient[s.ClientID] = append(t.byClient[s.ClientID], w)
		if s.End > t.horizon {
			t.horizon = s.End
		}
	}
	sort.Slice(t.windows, func(i, j int) bool {
		if t.windows[i].Start != t.windows[j].Start {
			return t.windows[i].Start < t.windows[j].Start
		}
		return t.windows[i].ClientID < t.windows[j].ClientID
	})
	for id := range t.byClient {
		ws := t.byClient[id]
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	}
	return t
}

// Windows returns every window sorted by start time.
func (t *Trace) Windows() []Window { return t.windows }

// ClientWindows returns a client's windows sorted by start.
func (t *Trace) ClientWindows(id int64) []Window { return t.byClient[id] }

// NumClients returns the distinct client count.
func (t *Trace) NumClients() int { return len(t.byClient) }

// Horizon returns the end of the last window.
func (t *Trace) Horizon() float64 { return t.horizon }

// AvailableAt reports whether the client has a window covering time x.
func (t *Trace) AvailableAt(id int64, x float64) bool {
	for _, w := range t.byClient[id] {
		if w.Start <= x && x < w.End {
			return true
		}
		if w.Start > x {
			break
		}
	}
	return false
}

// Series is Fig 2's availability-over-time line: per-bucket counts of
// concurrently available devices, normalized to the weekly peak.
type Series struct {
	BucketSec  float64
	Normalized []float64
	Peak       int
}

// ComputeSeries buckets window coverage over [0, horizon).
func ComputeSeries(t *Trace, bucketSec float64) (Series, error) {
	if bucketSec <= 0 {
		return Series{}, fmt.Errorf("availability: bucket must be positive, got %v", bucketSec)
	}
	if t.horizon <= 0 {
		return Series{}, fmt.Errorf("availability: empty trace")
	}
	n := int(math.Ceil(t.horizon / bucketSec))
	counts := make([]int, n)
	for _, w := range t.windows {
		lo := int(w.Start / bucketSec)
		hi := int(w.End / bucketSec)
		if hi >= n {
			hi = n - 1
		}
		for b := lo; b <= hi; b++ {
			counts[b]++
		}
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	s := Series{BucketSec: bucketSec, Peak: peak, Normalized: make([]float64, n)}
	if peak == 0 {
		return s, nil
	}
	for i, c := range counts {
		s.Normalized[i] = float64(c) / float64(peak)
	}
	return s, nil
}

// PeakTroughRatio returns peak/trough over the series, ignoring leading and
// trailing empty buckets; a zero trough counts as the smallest non-zero
// bucket to keep the ratio finite.
func (s Series) PeakTroughRatio() float64 {
	trough := math.Inf(1)
	for _, v := range s.Normalized {
		if v > 0 && v < trough {
			trough = v
		}
	}
	if math.IsInf(trough, 1) || trough == 0 {
		return 0
	}
	return 1 / trough
}
