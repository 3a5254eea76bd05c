// Command capacity demonstrates §3.5's resource forecasting and the Fig 9
// decision workflow: it runs the ads evaluation through every gate —
// availability, proxy data, model footprint, simulation quality, resource
// budget, privacy — and prints the go/no-go record.
package main

import (
	"fmt"
	"log"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/model"
	"flint/internal/partition"
	"flint/internal/report"
	"flint/internal/workflow"
)

func main() {
	seed := int64(55)
	scale := core.Scale{
		Clients: 200, TestRecords: 1800, TraceDays: 14,
		MaxRounds: 160, EvalEvery: 10, MaxShardExamples: 250,
		SessionsPerDay: 6, // an engaged app population
	}
	ctx := workflow.NewContext()

	wf := &workflow.Workflow{
		Name: "ads-fl-integration",
		Steps: []workflow.Step{
			{
				Name: "client-availability",
				Run: func(c *workflow.Context) (string, bool, error) {
					sessions, err := availability.GenerateLog(availability.DefaultLogConfig(scale.Clients, seed))
					if err != nil {
						return "", false, err
					}
					t1, err := availability.ComputeTable1(sessions)
					if err != nil {
						return "", false, err
					}
					eligible := availability.Apply(sessions, availability.Criteria{
						RequireWiFi: true, RequireBatteryHigh: true, RequireModernOS: true,
					})
					trace := availability.BuildTrace(eligible)
					series, err := availability.ComputeSeries(trace, 3600)
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
				Run: func(c *workflow.Context) (string, bool, error) {
					spec, err := core.SpecFor(core.Ads)
					if err != nil {
						return "", false, err
					}
					_, gen, err := core.BuildEnvironment(spec, scale, seed)
					if err != nil {
						return "", false, err
					}
					shards := make([]data.ClientShard, 0, scale.Clients)
					for id := int64(0); id < int64(scale.Clients); id++ {
						shards = append(shards, gen.GenerateClient(id))
					}
					stats := partition.ComputeStats("ads", shards, 90)
					detail := fmt.Sprintf("pop %d, avg %.0f rec/client, label %.2f",
						stats.ClientPop, stats.AvgRecords, stats.LabelRatio)
					// Gate: enough clients and a non-degenerate label ratio.
					return detail, stats.ClientPop >= 100 && stats.LabelRatio > 0.01, nil
				},
			},
			{
				Name: "model-footprint",
				Run: func(c *workflow.Context) (string, bool, error) {
					rows, err := device.Table5(device.BenchPool(), 500, seed)
					if err != nil {
						return "", false, err
					}
					for _, r := range rows {
						if r.Model == model.KindB {
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
				Run: func(c *workflow.Context) (string, bool, error) {
					res, err := core.RunCaseStudy(core.Ads, scale, seed)
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
				Run: func(c *workflow.Context) (string, bool, error) {
					repAny, _ := c.Get("report")
					rep := repAny.(*fedsim.Report)
					budget, err := forecast.BudgetFromReport(rep)
					if err != nil {
						return "", false, err
					}
					tee, err := forecast.TEELoad(rep, 780<<10)
					if err != nil {
						return "", false, err
					}
					seriesAny, _ := c.Get("series")
					infra, err := forecast.PlanInfra(rep, seriesAny.(availability.Series), 10)
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
				Run: func(c *workflow.Context) (string, bool, error) {
					eps, err := aggregator.EpsilonApprox(1.4, scale.MaxRounds, 1e-6)
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
