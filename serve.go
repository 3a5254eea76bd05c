package flint

import (
	"net/http"

	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/tenant"
)

// Live serving (the production half of the platform): the embed entry
// points of the wall-clock federated coordination server (internal/coord)
// and of a fleet load generator on the device side of its wire protocol
// (internal/fleet). The rest of the serving stack is reached through the
// binaries under cmd/. See DESIGN.md §6.
type (
	// Coordinator is the live federated training server.
	Coordinator = coord.Coordinator
	// CoordConfig parameterizes a Coordinator.
	CoordConfig = coord.Config
	// FleetConfig drives the synthetic device fleet.
	FleetConfig = fleet.Config
	// FleetReport is the load generator's result.
	FleetReport = fleet.Report
)

// Serving modes.
const (
	CoordSync  = coord.ModeSync
	CoordAsync = coord.ModeAsync
)

// DefaultCoordConfig returns a small sync-mode serving configuration.
func DefaultCoordConfig() CoordConfig { return coord.DefaultConfig() }

// NewCoordinator builds and starts a coordination server; Close it when
// done.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) { return coord.New(cfg) }

// CoordHandler wraps a coordinator in its /v1 JSON API.
func CoordHandler(c *Coordinator) http.Handler { return coord.NewServer(c) }

// RunFleet drives a simulated device fleet against a running server.
func RunFleet(cfg FleetConfig) (*FleetReport, error) { return fleet.Run(cfg) }

// Multi-tenant job plane (internal/tenant): M independent FL jobs
// hosted inside one server process behind /v1/jobs/<job>/... routing,
// with per-job device quotas and bearer-token auth. See DESIGN.md §12.
type (
	// JobSpec declares one FL job of a multi-tenant server; zero fields
	// inherit the server's base CoordConfig.
	JobSpec = tenant.JobSpec
	// JobRegistry hosts the jobs of a multi-tenant server.
	JobRegistry = tenant.Registry
	// TenantStatus is the multi-tenant /v1/status payload: the default
	// job's report inlined plus per-job and fleet rollup sections.
	TenantStatus = tenant.StatusReport
)

// NewJobRegistry creates an empty job registry over a base serving
// configuration; Close it when done.
func NewJobRegistry(base CoordConfig) *JobRegistry { return tenant.NewRegistry(base) }

// TenantHandler wraps a job registry in the multi-tenant /v1 router
// (job routing, default-job alias, status rollup). admin enables
// POST /v1/jobs job registration.
func TenantHandler(reg *JobRegistry, admin bool) http.Handler { return tenant.NewServer(reg, admin) }

// LoadJobSpecs parses a jobs file (a JSON array of specs, or an object
// with a "jobs" array).
func LoadJobSpecs(data []byte) ([]JobSpec, error) { return tenant.LoadSpecs(data) }
