package tenant

import (
	"fmt"
	"sort"
	"sync"

	"flint/internal/coord"
	"flint/internal/metrics"
)

// Job is one registered tenant: its spec, its running coordinator, and
// the coordinator's /v1 HTTP handler the router delegates to.
type Job struct {
	Spec  JobSpec
	Coord *coord.Coordinator
	// handler is the job's coord.Server: the same /v1 API a
	// single-tenant server exposes, reached through the job's route
	// prefix (or the default-job alias).
	handler *coord.Server
}

// Registry hosts the jobs of a multi-tenant server. Registration is
// rare (startup, admin API) and lookups are per-request, so jobs live
// behind one RWMutex; each job's serving hot paths are inside its own
// coordinator and never touch the registry lock after routing.
type Registry struct {
	base coord.Config

	mu   sync.RWMutex
	jobs map[string]*Job
	// defaultJob names the tenant the bare /v1/* alias routes to: the
	// first job registered.
	defaultJob string

	// counters is the tenant plane's own set — routing and registry
	// events that belong to no single job (unknown-job 404s, job
	// registrations). Per-job serving counters live in each job's
	// coordinator.
	counters *metrics.CounterSet
}

// NewRegistry creates an empty job registry. base is the server-wide
// default configuration (Base plus flint-server's process flags); each
// job spec overlays it.
func NewRegistry(base coord.Config) *Registry {
	r := &Registry{
		base:     base,
		jobs:     make(map[string]*Job),
		counters: metrics.NewCounterSet(),
	}
	// Pre-register the routing counters (the same zeroed-keys contract
	// each job's coordinator honors for its own set).
	for _, name := range []string{"jobs_registered", "route_unknown_job", "auth_rejected_token"} {
		r.counters.Counter(name)
	}
	return r
}

// Register validates the spec, starts the job's coordinator, and adds
// it to the routing table. The first job registered becomes the default
// tenant behind the bare /v1/* alias. Per the zeroed-keys contract,
// every per-job serving counter exists (at zero) the moment Register
// returns, so /v1/jobs/<job>/status is fully shaped before first
// traffic.
func (r *Registry) Register(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.CoordConfig(r.base)
	if err != nil {
		return nil, err
	}
	// Reserve the name before paying coordinator startup, then insert
	// for real after; two concurrent registrations of one name must not
	// both boot a coordinator (the loser's model store dir could clash).
	r.mu.Lock()
	if _, dup := r.jobs[spec.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("tenant: job %q already registered", spec.Name)
	}
	r.jobs[spec.Name] = nil // reservation
	r.mu.Unlock()
	c, err := coord.New(cfg)
	if err != nil {
		r.mu.Lock()
		delete(r.jobs, spec.Name)
		r.mu.Unlock()
		return nil, fmt.Errorf("tenant: job %s: %w", spec.Name, err)
	}
	job := &Job{Spec: spec, Coord: c, handler: coord.NewServer(c)}
	r.mu.Lock()
	r.jobs[spec.Name] = job
	if r.defaultJob == "" {
		r.defaultJob = spec.Name
	}
	r.mu.Unlock()
	r.counters.Counter("jobs_registered").Inc()
	return job, nil
}

// Get returns a registered job by name (nil for unknown names and
// not-yet-finished registrations).
func (r *Registry) Get(name string) *Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.jobs[name]
}

// Default returns the default tenant (the first job registered), or nil
// when the registry is empty.
func (r *Registry) Default() *Job {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.jobs[r.defaultJob]
}

// Jobs returns the registered jobs sorted by name.
func (r *Registry) Jobs() []*Job {
	r.mu.RLock()
	out := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		if j != nil {
			out = append(out, j)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Spec.Name < out[k].Spec.Name })
	return out
}

// Counters exposes the tenant plane's routing counters.
func (r *Registry) Counters() *metrics.CounterSet { return r.counters }

// Close stops every job's coordinator.
func (r *Registry) Close() {
	for _, j := range r.Jobs() {
		j.Coord.Close()
	}
}
