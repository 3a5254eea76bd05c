package flint

import (
	"io"
	"net/http"

	"flint/internal/aggregator"
	"flint/internal/codec"
	"flint/internal/coord"
	"flint/internal/fleet"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/tensor"
	"flint/internal/transport"
)

// Live serving (the production half of the platform): a wall-clock
// federated coordination server (internal/coord) plus a fleet load
// generator on the device side of its wire protocol (internal/fleet). See
// DESIGN.md §6.
type (
	// Coordinator is the live federated training server.
	Coordinator = coord.Coordinator
	// CoordConfig parameterizes a Coordinator.
	CoordConfig = coord.Config
	// CoordMode selects sync FedAvg or async FedBuff serving.
	CoordMode = coord.Mode
	// CoordStatus is the coordinator's status snapshot.
	CoordStatus = coord.StatusReport
	// CoordAggregationConfig selects the commit reducer and the
	// pre-reduce norm screen (CoordConfig.Aggregation).
	CoordAggregationConfig = coord.AggregationConfig
	// CoordDPConfig enables the commit pipeline's central-DP stage
	// (CoordConfig.DP): clip the aggregate delta, add seeded Gaussian
	// noise, account ε per round.
	CoordDPConfig = coord.DPConfig
	// CoordPrivacyReport is the DP accountant's /v1/status view.
	CoordPrivacyReport = coord.PrivacyReport
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
	// JobCohortSpec overlays one transport cohort's schemes and delta
	// window in a job spec.
	JobCohortSpec = tenant.CohortSpec
	// JobRegistry hosts the jobs of a multi-tenant server.
	JobRegistry = tenant.Registry
	// Job is one registered tenant (spec + running coordinator).
	Job = tenant.Job
	// TenantStatus is the multi-tenant /v1/status payload: the default
	// job's report inlined plus per-job and fleet rollup sections.
	TenantStatus = tenant.StatusReport
	// TenantJobStatus is one job's rollup row.
	TenantJobStatus = tenant.JobStatus
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

// Binary tensor wire format (internal/codec): the payload encoding shared
// by model checkpoints, the versioned store, and the serving protocol's
// /v1/task and /v1/update bodies.
type (
	// TensorScheme selects a payload encoding (raw64, f32, q8, topk).
	TensorScheme = codec.Scheme
)

// The parameterless tensor schemes; TensorTopK builds the sparse one.
var (
	TensorRawF64 = codec.RawF64
	TensorF32    = codec.F32
	TensorQ8     = codec.Q8
)

// TensorContentType is the Content-Type/Accept value that negotiates
// binary tensor bodies on the /v1 serving API.
const TensorContentType = transport.ContentTypeTensor

// TensorTopK returns a sparse top-k scheme keeping k entries (0 = dim/32).
func TensorTopK(k int) TensorScheme { return codec.TopK(k) }

// EncodeTensorDelta serializes diff — a difference against a base vector
// the receiver already holds — as a delta frame under the scheme.
func EncodeTensorDelta(diff []float64, s TensorScheme) ([]byte, error) {
	return codec.EncodeDelta(tensor.Vector(diff), s)
}

// ApplyTensorDelta decodes a delta frame and returns base + diff as a
// fresh slice, plus the scheme the difference was encoded with.
func ApplyTensorDelta(base []float64, blob []byte) ([]float64, TensorScheme, error) {
	v, s, err := codec.ApplyDelta(tensor.Vector(base), blob)
	return v, s, err
}

// IsTensorDelta reports whether a codec blob is a delta frame.
func IsTensorDelta(blob []byte) bool { return codec.IsDelta(blob) }

// Transport negotiation (internal/transport): per-cohort wire-scheme
// policies, selected per device from its advertised platform,
// connectivity, and codec capability list. See DESIGN.md §8.
type (
	// TransportConfig defines the per-cohort policies and the
	// delta-broadcast window of a coordinator.
	TransportConfig = transport.Config
	// TransportPolicy is one cohort's scheme assignment (task broadcast,
	// update uplink, delta broadcast).
	TransportPolicy = transport.Policy
	// TransportDevice is the device state negotiation sees.
	TransportDevice = transport.Device
	// TransportDecision is a negotiated transport assignment.
	TransportDecision = transport.Decision
)

// Transport cohort names.
const (
	TransportCohortDefault = transport.CohortDefault
	TransportCohortLowBW   = transport.CohortLowBW
)

// Scheduling plane (internal/sched): measured-bandwidth cohorts,
// deadline-gated assignment, and straggler-tail over-commit, derived
// from per-device telemetry the serving path observes. See DESIGN.md
// §10.
type (
	// SchedConfig parameterizes a coordinator's scheduling plane
	// (CoordConfig.Sched).
	SchedConfig = sched.Config
	// SchedReport is the scheduler's fleet view in /v1/status.
	SchedReport = sched.Report
	// SchedTelemetry is one device's measured serving history (EWMA
	// link throughput and reported task duration).
	SchedTelemetry = sched.Telemetry
	// SchedCohortStats is one cohort's device count and
	// measured-bandwidth histogram.
	SchedCohortStats = sched.CohortStats
)

// SchedBucketLabels names the measured-bandwidth histogram buckets of a
// SchedCohortStats, aligned with its BandwidthHist slice.
func SchedBucketLabels() []string { return sched.BucketLabels() }

// ParseTensorScheme converts a CLI/wire string ("raw64", "f32", "q8",
// "topk[:k]") into a scheme.
func ParseTensorScheme(s string) (TensorScheme, error) { return codec.ParseScheme(s) }

// EncodeTensor serializes a vector under the scheme into a framed,
// checksummed codec blob.
func EncodeTensor(v []float64, s TensorScheme) ([]byte, error) {
	return codec.Encode(tensor.Vector(v), s)
}

// DecodeTensor parses a codec blob back into a dense vector, reporting
// the scheme it was encoded with.
func DecodeTensor(b []byte) ([]float64, TensorScheme, error) {
	v, s, err := codec.Decode(b)
	return v, s, err
}

// DecodeTensorFrom reads exactly one framed codec blob from r and decodes
// it, streaming: the 16-byte header is validated (including against
// wantDim, when > 0) before the payload is buffered — into a pooled
// scratch buffer of exactly the payload size — so a receiver never holds
// more than one in-flight body copy. Bytes after the frame are left
// unread in r.
func DecodeTensorFrom(r io.Reader, wantDim int) ([]float64, TensorScheme, error) {
	v, s, err := codec.DecodeFrom(r, wantDim)
	return v, s, err
}

// TensorPayload is a validated view over one codec blob that defers
// decoding: the commit pipeline aggregates straight out of the wire bytes
// through fused per-scheme kernels instead of materializing a dense
// vector per update. Obtain one with DecodeTensorPayloadFrom (streaming,
// pooled backing buffer — Release it when done) or ParseTensorPayload
// (zero-copy view over a blob already in memory). See DESIGN.md §13.
type TensorPayload = codec.Payload

// DecodeTensorPayloadFrom reads exactly one framed codec blob from r —
// same framing, validation, and single-copy buffering as
// DecodeTensorFrom — but returns the payload in wire form instead of
// decoding it. The payload retains its pooled buffer: call Release when
// done (handing it to Coordinator.SubmitUpdate transfers that
// obligation).
func DecodeTensorPayloadFrom(r io.Reader, wantDim int) (*TensorPayload, error) {
	return codec.DecodePayloadFrom(r, wantDim)
}

// ParseTensorPayload validates blob (header, checksum, structure) and
// returns a zero-copy payload view over it; blob must stay immutable for
// the payload's lifetime. Release is a no-op for parsed payloads.
func ParseTensorPayload(blob []byte) (*TensorPayload, error) {
	return codec.ParsePayload(blob)
}

// Server-side aggregation strategies (internal/aggregator): the kernels
// the coordinator's commit pipeline folds device updates with.
type (
	// AggregatorStrategy folds a batch of updates into the global
	// parameter vector.
	AggregatorStrategy = aggregator.Strategy
	// AggregatorUpdate is one client's contribution to a round.
	AggregatorUpdate = aggregator.Update
	// ParallelAggregator shards a coordinate-separable strategy (FedAvg,
	// FedBuff, the robust column reducers) across cores, bit-for-bit
	// identical to the sequential fold; other strategies pass through
	// unchanged.
	ParallelAggregator = aggregator.Parallel
	// AggregatorNormScreen is the pre-reduce norm-outlier rejection
	// layer of the commit pipeline.
	AggregatorNormScreen = aggregator.NormScreen
)

// FedAvgStrategy returns synchronous weighted federated averaging.
func FedAvgStrategy() AggregatorStrategy { return aggregator.FedAvg{} }

// FedBuffStrategy returns buffered asynchronous aggregation with
// polynomial staleness discounting.
func FedBuffStrategy(serverLR, alpha float64) AggregatorStrategy {
	return aggregator.FedBuff{ServerLR: serverLR, Alpha: alpha}
}

// TrimmedMeanStrategy returns the Byzantine-robust coordinate-wise
// trimmed mean (trimFrac trimmed from each side per coordinate).
func TrimmedMeanStrategy(trimFrac float64) AggregatorStrategy {
	return aggregator.TrimmedMean{TrimFrac: trimFrac}
}

// CoordinateMedianStrategy returns the Byzantine-robust coordinate-wise
// median.
func CoordinateMedianStrategy() AggregatorStrategy { return aggregator.CoordinateMedian{} }

// Sharded coordination tier (internal/shard): N coordinator replicas
// each owning a consistent-hash slice of the device-id space behind a
// routing gateway, with hierarchical zero-copy commits — shards reduce
// their cohorts to wire-form partials and the tier leader folds them
// across shards. See DESIGN.md §14.
type (
	// ShardRing is the consistent-hash device→shard map.
	ShardRing = shard.Ring
	// ShardLeader folds shard partials into the tier's global model and
	// enforces halt-until-healthy membership.
	ShardLeader = shard.Leader
	// ShardLeaderConfig parameterizes the tier leader.
	ShardLeaderConfig = shard.LeaderConfig
	// ShardGateway routes the /v1 device API by device id and hosts the
	// leader's /shard/v1 exchange.
	ShardGateway = shard.Gateway
	// ShardGatewayConfig parameterizes the gateway.
	ShardGatewayConfig = shard.GatewayConfig
	// ShardHTTPExchange is a replica's client on the tier exchange.
	ShardHTTPExchange = shard.HTTPExchange
	// ShardHeartbeat is a replica's background membership pump.
	ShardHeartbeat = shard.Heartbeat
	// TierStatus is the leader's membership/exchange snapshot.
	TierStatus = shard.TierStatus
	// TierRollup is the gateway's /v1/status payload.
	TierRollup = shard.Rollup
	// TierPartial is one shard's reduced round contribution on the
	// exchange (a wire-form codec blob plus fold metadata).
	TierPartial = coord.PartialCommit
	// TierInstall is the leader's response: the current global version,
	// with the full raw64 parameter blob when the shard is behind.
	TierInstall = coord.GlobalInstall
	// TierExchange ships partials to the tier leader; coordinators run
	// hierarchical commits when CoordConfig.Exchange carries one.
	TierExchange = coord.PartialExchange
)

// ErrTierHalted is returned by a tier exchange while shard membership
// is unhealthy (paper §3.4 halt-until-healthy, run horizontally).
var ErrTierHalted = coord.ErrTierHalted

// NewShardRing builds a consistent-hash ring over `shards` shards with
// `replicas` vnodes each (replicas <= 0 selects the default 64).
func NewShardRing(shards, replicas int) (*ShardRing, error) { return shard.NewRing(shards, replicas) }

// NewShardLeader builds a tier round leader.
func NewShardLeader(cfg ShardLeaderConfig) (*ShardLeader, error) { return shard.NewLeader(cfg) }

// NewShardGateway builds the tier's routing gateway.
func NewShardGateway(cfg ShardGatewayConfig) (*ShardGateway, error) { return shard.NewGateway(cfg) }

// NewShardExchange builds an HTTP exchange client for a gateway URL.
func NewShardExchange(gatewayURL string) *ShardHTTPExchange { return shard.NewHTTPExchange(gatewayURL) }
