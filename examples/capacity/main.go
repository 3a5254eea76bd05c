// Command capacity demonstrates §3.5's resource forecasting and the Fig 9
// decision workflow: it runs the ads evaluation through every gate —
// availability, proxy data, model footprint, simulation quality, resource
// budget, privacy — and prints the go/no-go record.
package main

import (
	"fmt"
	"log"

	"flint"
	"flint/internal/report"
)

func main() {
	seed := int64(55)
	scale := flint.Scale{
		Clients: 200, TestRecords: 1800, TraceDays: 14,
		MaxRounds: 160, EvalEvery: 10, MaxShardExamples: 250,
		SessionsPerDay: 6, // an engaged app population
	}
	ctx := flint.NewWorkflowContext()

	wf := &flint.DecisionWorkflow{
		Name: "ads-fl-integration",
		Steps: []flint.WorkflowStep{
			{
				Name: "client-availability",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					sessions, err := flint.GenerateSessionLog(flint.DefaultSessionLog(scale.Clients, seed))
					if err != nil {
						return "", false, err
					}
					t1, err := flint.ComputeTable1(sessions)
					if err != nil {
						return "", false, err
					}
					eligible := flint.ApplyCriteria(sessions, flint.Criteria{
						RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true,
					})
					trace := flint.BuildTrace(eligible)
					series, err := flint.ComputeAvailabilitySeries(trace, 3600)
					if err != nil {
						return "", false, err
					}
					c.Put("series", series)
					detail := fmt.Sprintf("eligible %.0f%%, peak/trough %.1fx",
						100*t1.Intersect, series.PeakTroughRatio())
					// Gate: at least 10% of sessions must be FL-eligible.
					return detail, t1.Intersect >= 0.10, nil
				},
			},
			{
				Name: "proxy-dataset",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					spec, err := flint.SpecFor(flint.Ads)
					if err != nil {
						return "", false, err
					}
					_, gen, err := flint.BuildEnvironment(spec, scale, seed)
					if err != nil {
						return "", false, err
					}
					shards := make([]flint.ClientShard, 0, scale.Clients)
					for id := int64(0); id < int64(scale.Clients); id++ {
						shards = append(shards, gen.GenerateClient(id))
					}
					stats := flint.ComputeProxyStats("ads", shards, 90)
					detail := fmt.Sprintf("pop %d, avg %.0f rec/client, label %.2f",
						stats.ClientPop, stats.AvgRecords, stats.LabelRatio)
					// Gate: enough clients and a non-degenerate label ratio.
					return detail, stats.ClientPop >= 100 && stats.LabelRatio > 0.01, nil
				},
			},
			{
				Name: "model-footprint",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					rows, err := flint.RunDeviceBenchmarks(flint.BenchDevicePool(), 500, seed)
					if err != nil {
						return "", false, err
					}
					for _, r := range rows {
						if r.Model == flint.ModelB {
							detail := fmt.Sprintf("model B: %.2f MB storage, %.2f MB/round, %.1fs/500rec mean",
								r.StorageMB, r.NetworkMB, r.MeanTimeS)
							// Gate: the §4.1 SDK limit (<1 MB).
							return detail, r.StorageMB < 1.0, nil
						}
					}
					return "model B missing", false, nil
				},
			},
			{
				Name: "training-quality",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					res, err := flint.RunCaseStudy(flint.Ads, scale, seed)
					if err != nil {
						return "", false, err
					}
					c.Put("report", res.Report)
					c.Put("result", res)
					detail := fmt.Sprintf("FL %+.2f%% vs centralized, time to tolerance %s",
						res.PerfDiffPct, report.Dur(res.TimeToToleranceSec))
					// Gates from §4.1: up to 5% accuracy degradation is
					// tolerable in ads; SLA is a weekly retrain.
					return detail, res.PerfDiffPct > -5 && res.ReachedTolerance &&
						res.TimeToToleranceSec < 7*86400, nil
				},
			},
			{
				Name: "resource-budget",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					repAny, _ := c.Get("report")
					rep := repAny.(*flint.SimReport)
					budget, err := flint.ForecastDeviceBudget(rep)
					if err != nil {
						return "", false, err
					}
					tee, err := flint.ForecastTEELoad(rep, 780<<10)
					if err != nil {
						return "", false, err
					}
					seriesAny, _ := c.Get("series")
					infra, err := flint.PlanInfrastructure(rep, seriesAny.(flint.AvailabilitySeries), 10)
					if err != nil {
						return "", false, err
					}
					detail := fmt.Sprintf("compute %s, wasted %.0f%%, TEE %.3f MB/s, %d workers at peak",
						report.Dur(budget.ComputeSec), 100*budget.WastedFraction,
						tee.BytesPerSec/1e6, infra.Workers)
					// Gates: TEE ingest under 3 MB/s (§4.1), wasted work under half.
					return detail, tee.BytesPerSec/1e6 < 3 && budget.WastedFraction < 0.5, nil
				},
			},
			{
				Name: "privacy-review",
				Run: func(c *flint.WorkflowContext) (string, bool, error) {
					eps, err := flint.EpsilonApprox(1.4, scale.MaxRounds, 1e-6)
					if err != nil {
						return "", false, err
					}
					detail := fmt.Sprintf("FL-DP epsilon ≈ %.1f over %d rounds at sigma=1.4; SecAgg TEE-compatible (async)", eps, scale.MaxRounds)
					return detail, eps < 50, nil
				},
			},
		},
	}

	out, err := wf.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.String())
}
