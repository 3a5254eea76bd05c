package flint

import (
	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/data"
	"flint/internal/forecast"
	"flint/internal/partition"
	"flint/internal/workflow"
)

// Availability tooling (§3.2).
type (
	// Session is one processed foreground session.
	Session = availability.Session
	// SessionLogConfig drives the synthetic session-log generator.
	SessionLogConfig = availability.LogConfig
	// Trace is a per-client availability trace.
	Trace = availability.Trace
	// Table1 holds the per-criterion availability fractions.
	Table1 = availability.Table1
	// AvailabilitySeries is Fig 2's availability-over-time line.
	AvailabilitySeries = availability.Series
)

// DefaultSessionLog returns the two-week log configuration used by §4.1.
func DefaultSessionLog(clients int, seed int64) SessionLogConfig {
	return availability.DefaultLogConfig(clients, seed)
}

// GenerateSessionLog produces the synthetic session log.
func GenerateSessionLog(cfg SessionLogConfig) ([]Session, error) {
	return availability.GenerateLog(cfg)
}

// ApplyCriteria filters a session log by participation criteria.
func ApplyCriteria(sessions []Session, c Criteria) []Session {
	return availability.Apply(sessions, c)
}

// ComputeTable1 measures the Table 1 eligibility fractions.
func ComputeTable1(sessions []Session) (Table1, error) {
	return availability.ComputeTable1(sessions)
}

// BuildTrace converts admitted sessions into an availability trace.
func BuildTrace(sessions []Session) *Trace { return availability.BuildTrace(sessions) }

// ComputeAvailabilitySeries buckets a trace into Fig 2's series.
func ComputeAvailabilitySeries(t *Trace, bucketSec float64) (AvailabilitySeries, error) {
	return availability.ComputeSeries(t, bucketSec)
}

// Resource forecasting (§3.5).
type (
	// DeviceBudget is the edge resource bill of one training job.
	DeviceBudget = forecast.DeviceBudget
	// TEEThroughput is the secure aggregator's ingest load.
	TEEThroughput = aggregator.TEEThroughput
	// InfraPlan sizes the cloud aggregation service.
	InfraPlan = forecast.InfraPlan
)

// ForecastDeviceBudget derives the device budget from a simulation report.
func ForecastDeviceBudget(rep *SimReport) (DeviceBudget, error) {
	return forecast.BudgetFromReport(rep)
}

// ForecastTEELoad projects the TEE aggregator's bandwidth needs.
func ForecastTEELoad(rep *SimReport, updateBytes int) (TEEThroughput, error) {
	return forecast.TEELoad(rep, updateBytes)
}

// PlanInfrastructure sizes the worker pool against load swings.
func PlanInfrastructure(rep *SimReport, series AvailabilitySeries, updatesPerWorkerSec float64) (InfraPlan, error) {
	return forecast.PlanInfra(rep, series, updatesPerWorkerSec)
}

// Decision workflow (Fig 9).
type (
	// WorkflowStep is one gated stage of the decision workflow.
	WorkflowStep = workflow.Step
	// DecisionWorkflow is an ordered pipeline of steps.
	DecisionWorkflow = workflow.Workflow
	// WorkflowContext carries artifacts between steps.
	WorkflowContext = workflow.Context
)

// NewWorkflowContext creates an empty artifact context.
func NewWorkflowContext() *WorkflowContext { return workflow.NewContext() }

// Proxy dataset tooling (§3.3).

// ClientShard is one client's local dataset with its grouping key.
type ClientShard = data.ClientShard

// ComputeProxyStats derives Table 2 metadata from client shards.
func ComputeProxyStats(name string, shards []ClientShard, lookbackDays int) ProxyStats {
	return partition.ComputeStats(name, shards, lookbackDays)
}

// EpsilonApprox is the privacy accountant (§3.6): the (ε, δ) spent by
// `rounds` Gaussian-mechanism rounds at noise multiplier sigma — the same
// function the live server's DP stage reports.
func EpsilonApprox(sigma float64, rounds int, delta float64) (float64, error) {
	return aggregator.EpsilonApprox(sigma, rounds, delta)
}
