// Package tenant is the multi-tenant job plane: a registry and
// admission layer hosting M independent FL jobs inside one server
// process. Each job owns a full coordinator — its own round FSM,
// broadcast plane, version ring, transport policy, scheduler, and
// counter set — behind /v1/jobs/<job>/... routing, with the bare /v1/*
// paths aliased to a default job so single-tenant clients keep working
// unchanged. Admission enforces per-job device quotas and bearer-token
// auth, so one hungry job can't starve the fleet or read another
// tenant's model.
package tenant

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/transport"
)

// Duration is a time.Duration that unmarshals from a JSON duration
// string ("15s", "2m30s").
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("tenant: duration must be a duration string like \"90s\", got %s", b)
	}
	parsed, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("tenant: bad duration %q: %w", s, err)
	}
	*d = Duration(parsed)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// CohortSpec is one transport cohort's wire-scheme assignment in a job
// spec. Empty scheme strings inherit the server's base policy for that
// cohort.
type CohortSpec struct {
	// Task/Update/Delta are codec scheme strings ("raw64", "f32", "q8",
	// "topk[:k]") for the cohort's broadcast, uplink, and
	// delta-broadcast encodings.
	Task   string `json:"task,omitempty"`
	Update string `json:"update,omitempty"`
	Delta  string `json:"delta,omitempty"`
	// DeltaDepth is this cohort's delta-history window: 0 inherits the
	// job's delta_history, negative disables delta broadcast for the
	// cohort alone.
	DeltaDepth int `json:"delta_depth,omitempty"`
}

// apply overlays the cohort spec on a base policy.
func (cs *CohortSpec) apply(p transport.Policy) (transport.Policy, error) {
	if cs == nil {
		return p, nil
	}
	if err := parseSchemeInto(&p.Task, cs.Task); err != nil {
		return p, err
	}
	if err := parseSchemeInto(&p.Update, cs.Update); err != nil {
		return p, err
	}
	if err := parseSchemeInto(&p.Delta, cs.Delta); err != nil {
		return p, err
	}
	if cs.DeltaDepth != 0 {
		p.DeltaDepth = cs.DeltaDepth
	}
	return p, nil
}

// parseSchemeInto parses a scheme string into dst; empty strings keep
// the inherited scheme.
func parseSchemeInto(dst *codec.Scheme, raw string) error {
	if raw == "" {
		return nil
	}
	s, err := codec.ParseScheme(raw)
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// JobSpec declares one FL job of a multi-tenant server: what model it
// trains, how its rounds run, how its bytes move, and who may join it.
// Zero fields inherit the server's base (single-job) configuration, so
// a spec states only what makes the job different.
type JobSpec struct {
	// Name identifies the job in /v1/jobs/<name>/... routes, the
	// modelstore, and the status rollup. Required; letters, digits,
	// '-', '_', '.' only.
	Name string `json:"name"`
	// Mode is the training protocol ("sync" or "async").
	Mode string `json:"mode,omitempty"`
	// Model is the Table 5 architecture kind (A–E) — the job's model
	// dimension follows from it.
	Model string `json:"model,omitempty"`
	// Seed seeds the job's model initialization.
	Seed int64 `json:"seed,omitempty"`
	// TargetUpdates is the job's aggregation trigger K; Quorum the
	// deadline minimum (default K/2).
	TargetUpdates int `json:"target_updates,omitempty"`
	Quorum        int `json:"quorum,omitempty"`
	// RoundDeadline bounds a round's wall-clock collecting time.
	RoundDeadline Duration `json:"round_deadline,omitempty"`
	// MaxStaleness bounds async update staleness (0 inherits).
	MaxStaleness int `json:"max_staleness,omitempty"`
	// ServerLR and StalenessAlpha parameterize async FedBuff.
	ServerLR       float64 `json:"server_lr,omitempty"`
	StalenessAlpha float64 `json:"staleness_alpha,omitempty"`
	// LocalSteps is the per-task local training step hint.
	LocalSteps int `json:"local_steps,omitempty"`
	// DeltaHistory is the job's delta-broadcast window (negative
	// disables delta broadcast; 0 inherits the server default).
	// Cohorts override it per-cohort via DeltaDepth.
	DeltaHistory int `json:"delta_history,omitempty"`
	// Default and LowBW overlay the job's per-cohort wire policies.
	Default *CohortSpec `json:"default_cohort,omitempty"`
	LowBW   *CohortSpec `json:"lowbw_cohort,omitempty"`
	// Aggregation picks the job's commit reducer ("fedavg", "fedbuff",
	// "trimmed-mean", "coordinate-median"; empty inherits the base
	// config, whose empty default is the mode's standard reducer).
	Aggregation string `json:"aggregation,omitempty"`
	// TrimFrac is trimmed-mean's per-side trim fraction.
	TrimFrac float64 `json:"trim_frac,omitempty"`
	// ScreenMaxNorm / ScreenMedianFactor parameterize the job's
	// pre-reduce norm screen (see coord.AggregationConfig).
	ScreenMaxNorm      float64 `json:"screen_max_norm,omitempty"`
	ScreenMedianFactor float64 `json:"screen_median_factor,omitempty"`
	// DPEpsilon/DPDelta/DPClipNorm/DPSeed enable the job's central-DP
	// commit stage (see coord.DPConfig); zero fields inherit the base.
	DPEpsilon  float64 `json:"dp_epsilon,omitempty"`
	DPDelta    float64 `json:"dp_delta,omitempty"`
	DPClipNorm float64 `json:"dp_clip_norm,omitempty"`
	DPSeed     int64   `json:"dp_seed,omitempty"`
	// MaxDevices is the job's device quota: how many distinct devices
	// may be checked in at once (0 inherits the base quota, where 0
	// means unlimited). Over-quota check-ins get 429 and
	// checkin_rejected_quota.
	MaxDevices int `json:"max_devices,omitempty"`
	// Token, when set, locks the job's routes behind bearer-token auth:
	// requests must carry it as "Authorization: Bearer <token>". Wrong
	// or missing tokens get 401 and auth_rejected_token.
	Token string `json:"token,omitempty"`
}

// Validate checks the spec's standalone invariants (the rest are
// validated by coord.New when the job starts).
func (s JobSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("tenant: job needs a name")
	}
	for _, r := range s.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant: job name %q contains %q (want letters, digits, '-', '_', '.')", s.Name, r)
		}
	}
	if s.MaxDevices < 0 {
		return fmt.Errorf("tenant: job %s: negative device quota %d", s.Name, s.MaxDevices)
	}
	return nil
}

// coordConfig overlays the spec on the server's base configuration and
// returns the job's coordinator config: the job name becomes the
// modelstore name, persistence lands in a per-job subdirectory, and
// every zero spec field keeps the base value.
func (s JobSpec) coordConfig(base coord.Config) (coord.Config, error) {
	cfg := base
	cfg.ModelName = s.Name
	if base.StoreDir != "" {
		cfg.StoreDir = filepath.Join(base.StoreDir, s.Name)
	}
	if s.Mode != "" {
		m, err := coord.ParseMode(s.Mode)
		if err != nil {
			return cfg, fmt.Errorf("tenant: job %s: %w", s.Name, err)
		}
		cfg.Mode = m
	}
	if s.Model != "" {
		cfg.ModelKind = model.Kind(s.Model)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.TargetUpdates != 0 {
		cfg.TargetUpdates = s.TargetUpdates
		// A job that shrinks the target must not inherit a base quorum
		// sized for a larger one (coord.New rejects quorum > target);
		// an explicit spec quorum below still overrides.
		cfg.Quorum = 0
	}
	if s.Quorum != 0 {
		cfg.Quorum = s.Quorum
	}
	if s.RoundDeadline != 0 {
		cfg.RoundDeadline = time.Duration(s.RoundDeadline)
	}
	if s.MaxStaleness != 0 {
		cfg.MaxStaleness = s.MaxStaleness
	}
	if s.ServerLR != 0 {
		cfg.ServerLR = s.ServerLR
	}
	if s.StalenessAlpha != 0 {
		cfg.StalenessAlpha = s.StalenessAlpha
	}
	if s.LocalSteps != 0 {
		cfg.LocalSteps = s.LocalSteps
	}
	if s.DeltaHistory != 0 {
		cfg.Transport.DeltaHistory = s.DeltaHistory
	}
	var err error
	if cfg.Transport.Default, err = s.Default.apply(cfg.Transport.Default); err != nil {
		return cfg, fmt.Errorf("tenant: job %s default cohort: %w", s.Name, err)
	}
	if cfg.Transport.LowBW, err = s.LowBW.apply(cfg.Transport.LowBW); err != nil {
		return cfg, fmt.Errorf("tenant: job %s lowbw cohort: %w", s.Name, err)
	}
	if s.Aggregation != "" {
		cfg.Aggregation.Strategy = s.Aggregation
	}
	if s.TrimFrac != 0 {
		cfg.Aggregation.TrimFrac = s.TrimFrac
	}
	if s.ScreenMaxNorm != 0 {
		cfg.Aggregation.ScreenMaxNorm = s.ScreenMaxNorm
	}
	if s.ScreenMedianFactor != 0 {
		cfg.Aggregation.ScreenMedianFactor = s.ScreenMedianFactor
	}
	if s.DPEpsilon != 0 {
		cfg.DP.Epsilon = s.DPEpsilon
	}
	if s.DPDelta != 0 {
		cfg.DP.Delta = s.DPDelta
	}
	if s.DPClipNorm != 0 {
		cfg.DP.ClipNorm = s.DPClipNorm
	}
	if s.DPSeed != 0 {
		cfg.DP.Seed = s.DPSeed
	}
	if s.MaxDevices != 0 {
		cfg.MaxDevices = s.MaxDevices
	}
	if cfg.Exchange != nil {
		// A sharded multi-tenant server keys every partial by job name,
		// so one tier leader can reduce several tenants independently.
		cfg.ExchangeJob = s.Name
	}
	return cfg, nil
}

// CoordConfig overlays the spec on a base serving configuration — the
// same derivation Register performs — so tier peers that must agree
// with a job's coordinators on model identity (the shard gateway's
// leader builds each job's initial global params) derive it from the
// same spec file instead of duplicating the overlay rules.
func (s JobSpec) CoordConfig(base coord.Config) (coord.Config, error) {
	return s.coordConfig(base)
}

// LoadSpecs parses a jobs file: a JSON array of job specs.
func LoadSpecs(data []byte) ([]JobSpec, error) {
	var specs []JobSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("tenant: jobs file must be a JSON array of specs: %w", err)
	}
	return specs, nil
}
