// Package transport is the wire-scheme policy layer of the serving
// protocol: it decides, per device, which codec encodings move model
// state in each direction.
//
// The paper's central constraint (§2) is that cross-device FL must fit
// inside heterogeneous app networking budgets — bandwidth differs by
// orders of magnitude across the fleet. A single global scheme knob
// cannot express that, so the coordinator classifies each device into a
// *cohort* from what it advertises at check-in (platform, connectivity)
// and assigns the cohort's Policy: the full-broadcast encoding for
// /v1/task, the delta-broadcast encoding served against the device's
// last-seen version, and the update encoding the device is asked to use
// on /v1/update.
//
// Negotiation is capability-safe: devices advertise the scheme kinds they
// can decode (an Accept-style comma-separated list sent at check-in and
// echoed as a header on task requests), and the Negotiator never assigns
// a scheme outside that list. A device whose advertised list contains
// nothing this server can serve falls back to f32 — the universal
// baseline every client decodes — and the decision is marked so the
// coordinator can count it.
package transport

import (
	"fmt"
	"strings"

	"flint/internal/codec"
)

// Cohort names. They appear in counters, status output, and the
// X-Flint-Cohort response header; keep them stable.
const (
	// CohortDefault covers well-connected devices (WiFi).
	CohortDefault = "default"
	// CohortLowBW covers bandwidth-constrained devices (cellular): they
	// get sparser, cheaper encodings at some fidelity cost.
	CohortLowBW = "lowbw"
)

// Policy is one cohort's scheme assignment: how every byte of model
// state moves for devices in that cohort.
type Policy struct {
	// Task encodes the full parameter broadcast on /v1/task.
	Task codec.Scheme
	// Update is the delta encoding devices use on /v1/update uplink.
	Update codec.Scheme
	// Delta encodes the downlink difference served when the device's
	// last-seen version is still in the coordinator's version ring.
	Delta codec.Scheme
	// DeltaDepth is this cohort's delta-history window: how many
	// versions behind the published model a device's base may lag and
	// still be served a delta frame. Slow cohorts fetch less often, so
	// their bases age more between tasks — a deeper window keeps them on
	// cheap deltas where the global default would force full broadcasts.
	// 0 inherits Config.DeltaHistory; negative disables delta broadcast
	// for the cohort alone.
	DeltaDepth int
}

// Validate rejects policies holding invalid schemes.
func (p Policy) Validate() error {
	if err := p.Task.Validate(); err != nil {
		return fmt.Errorf("task scheme: %w", err)
	}
	if err := p.Update.Validate(); err != nil {
		return fmt.Errorf("update scheme: %w", err)
	}
	if err := p.Delta.Validate(); err != nil {
		return fmt.Errorf("delta scheme: %w", err)
	}
	return nil
}

// Config defines the server's cohort policies and the delta-broadcast
// window. The zero value defaults to: default cohort f32 broadcast / q8
// uplink / q8 delta; low-bandwidth cohort topk broadcast / q8 uplink /
// topk delta; 8 versions of delta history.
type Config struct {
	// Default is the well-connected cohort's policy.
	Default Policy
	// LowBW is the bandwidth-constrained cohort's policy.
	LowBW Policy
	// DeltaHistory is K, how many recent published versions the
	// coordinator retains as delta bases (0 = default 8; negative
	// disables delta broadcast entirely). Cohorts can override their own
	// window via Policy.DeltaDepth; the coordinator's version ring is
	// sized to the deepest cohort (RingDepth).
	DeltaHistory int
}

// DefaultDeltaHistory is the version-ring depth used when Config leaves
// DeltaHistory zero.
const DefaultDeltaHistory = 8

// WithDefaults fills zero fields and validates the result.
func (c Config) WithDefaults() (Config, error) {
	if c.Default.Task.Kind == codec.KindInvalid {
		c.Default.Task = codec.F32
	}
	if c.Default.Update.Kind == codec.KindInvalid {
		c.Default.Update = codec.Q8
	}
	if c.Default.Delta.Kind == codec.KindInvalid {
		c.Default.Delta = codec.Q8
	}
	if c.LowBW.Task.Kind == codec.KindInvalid {
		c.LowBW.Task = codec.Scheme{Kind: codec.KindTopK}
	}
	if c.LowBW.Update.Kind == codec.KindInvalid {
		c.LowBW.Update = codec.Q8
	}
	if c.LowBW.Delta.Kind == codec.KindInvalid {
		c.LowBW.Delta = codec.Scheme{Kind: codec.KindTopK}
	}
	if c.DeltaHistory == 0 {
		c.DeltaHistory = DefaultDeltaHistory
	}
	if err := c.Default.Validate(); err != nil {
		return c, fmt.Errorf("transport: default cohort: %w", err)
	}
	if err := c.LowBW.Validate(); err != nil {
		return c, fmt.Errorf("transport: lowbw cohort: %w", err)
	}
	return c, nil
}

// DepthFor returns the named cohort's effective delta-history window:
// the cohort's DeltaDepth override when set, else the global
// DeltaHistory, else DefaultDeltaHistory (mirroring WithDefaults, so an
// un-defaulted zero config still reads as delta-enabled). Never
// negative — a disabled window reports 0.
func (c Config) DepthFor(cohort string) int {
	d := c.PolicyFor(cohort).DeltaDepth
	if d == 0 {
		d = c.DeltaHistory
	}
	if d == 0 {
		d = DefaultDeltaHistory
	}
	if d < 0 {
		return 0
	}
	return d
}

// RingDepth is the version-ring size the coordinator must retain: the
// deepest cohort window, so every cohort's admissible delta base is
// actually answerable. 0 means no cohort uses delta broadcast.
func (c Config) RingDepth() int {
	depth := c.DepthFor(CohortDefault)
	if d := c.DepthFor(CohortLowBW); d > depth {
		depth = d
	}
	return depth
}

// DeltaSchemes lists the distinct delta-broadcast encodings the cohort
// policies can assign — the schemes a published version's delta frames
// can be requested under. Cohorts whose delta window is disabled
// contribute nothing: no request of theirs can ever be answered with a
// delta frame.
func (c Config) DeltaSchemes() []codec.Scheme {
	var out []codec.Scheme
	if c.DepthFor(CohortDefault) > 0 {
		out = append(out, c.Default.Delta)
	}
	if c.DepthFor(CohortLowBW) > 0 && (len(out) == 0 || c.LowBW.Delta != c.Default.Delta) {
		out = append(out, c.LowBW.Delta)
	}
	return out
}

// Device is the client state negotiation sees: what the device reported
// at check-in (or echoed on the request being served).
type Device struct {
	// Platform is the device OS family ("Android", "iOS", ...).
	Platform string
	// WiFi is the session's connectivity class; cellular sessions are
	// classified low-bandwidth when no Cohort pin is present.
	WiFi bool
	// Cohort, when set to a known cohort name, pins the classification:
	// the caller has a better signal than the radio label (the
	// scheduler's measured-bandwidth cohort map). Unknown or empty
	// values fall back to the WiFi rule, so an unmeasured device — or a
	// pin from a newer scheduler this build doesn't know — degrades to
	// the label-based classification instead of erroring.
	Cohort string
	// Accept lists the scheme kinds the client can decode, in no
	// particular order. nil means the client predates negotiation
	// (legacy binary or JSON) and is assumed to decode every kind this
	// server ships; empty-but-non-nil means it advertised a list with
	// nothing usable in it.
	Accept []codec.Kind
}

// Decision is a negotiated transport assignment.
type Decision struct {
	// Cohort names the policy class the device landed in.
	Cohort string
	// Policy is the cohort policy after capability filtering: every
	// scheme in it is one the device can decode.
	Policy Policy
	// Fallback is set when the device's advertised list contained no
	// scheme this server could honor for some slot, forcing the f32
	// universal baseline outside the list. Counted server-side.
	Fallback bool
}

// Negotiator maps advertised device state to a transport Decision. It is
// immutable after construction and safe for concurrent use.
type Negotiator struct {
	cfg Config
}

// NewNegotiator validates and captures the cohort configuration.
func NewNegotiator(cfg Config) (*Negotiator, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	return &Negotiator{cfg: cfg}, nil
}

// Config returns the effective (defaulted) policy configuration.
func (n *Negotiator) Config() Config { return n.cfg }

// Classify maps device state to its cohort name without negotiating
// schemes (diagnostics and tests; serving uses Negotiate). A valid
// Cohort pin — the measured-bandwidth assignment a scheduler computed —
// wins over the radio label.
func (n *Negotiator) Classify(d Device) string {
	switch d.Cohort {
	case CohortDefault, CohortLowBW:
		return d.Cohort
	}
	return LabelCohort(d.WiFi)
}

// LabelCohort is the radio-label fallback classification — the single
// source of the WiFi→default / cellular→lowbw rule, shared by the
// negotiator and by schedulers placing unmeasured devices in their
// census.
func LabelCohort(wifi bool) string {
	if !wifi {
		return CohortLowBW
	}
	return CohortDefault
}

// PolicyFor returns the named cohort's policy (unknown names get the
// default cohort's).
func (c Config) PolicyFor(cohort string) Policy {
	if cohort == CohortLowBW {
		return c.LowBW
	}
	return c.Default
}

// Negotiate assigns the device its cohort policy, constrained to the
// scheme kinds it advertised. Slots the device can't decode degrade to
// f32 when f32 is in its list; when even that is missing, f32 is served
// anyway (every shipped client decodes it) and the decision is flagged
// as a fallback so the caller can count it.
func (n *Negotiator) Negotiate(d Device) Decision {
	dec := Decision{Cohort: n.Classify(d)}
	dec.Policy = n.cfg.PolicyFor(dec.Cohort)
	if d.Accept == nil {
		return dec
	}
	accepts := make(map[codec.Kind]bool, len(d.Accept))
	for _, k := range d.Accept {
		accepts[k] = true
	}
	pick := func(want codec.Scheme) codec.Scheme {
		switch {
		case accepts[want.Kind]:
			return want
		case accepts[codec.KindF32]:
			return codec.F32
		default:
			dec.Fallback = true
			return codec.F32
		}
	}
	dec.Policy.Task = pick(dec.Policy.Task)
	dec.Policy.Update = pick(dec.Policy.Update)
	dec.Policy.Delta = pick(dec.Policy.Delta)
	return dec
}

// AllKinds lists every scheme kind this build can decode, in preference
// order — what a current client advertises.
func AllKinds() []codec.Kind {
	return []codec.Kind{codec.KindF32, codec.KindQ8, codec.KindTopK, codec.KindRawF64}
}

// kindNames maps wire names to kinds for ParseAccept. Scheme parameters
// (topk:k) are a server-side choice; capability lists carry bare kinds.
var kindNames = map[string]codec.Kind{
	"raw64": codec.KindRawF64,
	"f32":   codec.KindF32,
	"q8":    codec.KindQ8,
	"topk":  codec.KindTopK,
}

// ParseAccept parses a comma-separated advertised scheme list ("f32,q8")
// into the kinds this server recognizes, reporting how many entries it
// did not — future clients may advertise schemes an older server has
// never heard of, and those must degrade, not error. The result is
// always non-nil: an all-unknown list yields an empty (not nil) slice,
// preserving the "advertised but unusable" signal Negotiate keys on.
func ParseAccept(list string) (kinds []codec.Kind, unknown int) {
	kinds = []codec.Kind{}
	seen := map[codec.Kind]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		// Tolerate parameterized advertisements ("topk:64"): the kind
		// is the capability; the parameter is the sender's business.
		if base, _, ok := strings.Cut(name, ":"); ok {
			name = base
		}
		k, ok := kindNames[name]
		if !ok {
			unknown++
			continue
		}
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	return kinds, unknown
}

// FormatAccept renders a capability list for the wire, the inverse of
// ParseAccept.
func FormatAccept(kinds []codec.Kind) string {
	names := make([]string, 0, len(kinds))
	for _, k := range kinds {
		switch k {
		case codec.KindRawF64:
			names = append(names, "raw64")
		case codec.KindF32:
			names = append(names, "f32")
		case codec.KindQ8:
			names = append(names, "q8")
		case codec.KindTopK:
			names = append(names, "topk")
		}
	}
	return strings.Join(names, ",")
}
