// Command quickstart runs the smallest end-to-end FLINT flow: build the ads
// environment (proxy data, availability trace, device benchmarks, network
// model), run a short FedBuff simulation, and print model + system metrics
// over rounds and virtual time.
package main

import (
	"fmt"
	"log"

	"flint/internal/core"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/report"
)

func main() {
	scale := core.Scale{
		Clients: 120, TestRecords: 1200, TraceDays: 7,
		MaxRounds: 20, EvalEvery: 4, MaxShardExamples: 200,
	}
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		log.Fatal(err)
	}
	env, _, err := core.BuildEnvironment(spec, scale, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.AsyncConfig(spec, scale, 42)
	rep, err := fedsim.Run(cfg, env)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("FLINT quickstart — ads domain, FedBuff async training")
	fmt.Println()
	tbl := report.NewTable("Model & system metrics per round",
		"round", "vtime", "AUPR", "buffer fill", "started", "ok", "compute")
	for _, r := range rep.Rounds {
		metric := "-"
		if r.Evaluated() {
			metric = fmt.Sprintf("%.4f", r.Metric)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", r.Round),
			report.Dur(r.VTime),
			metric,
			report.Dur(r.BufferFillSec),
			fmt.Sprintf("%d", r.Started),
			fmt.Sprintf("%d", r.Succeeded),
			report.Dur(r.ComputeSec),
		)
	}
	fmt.Println(tbl.String())
	_, _, vals := rep.MetricSeries()
	fmt.Printf("AUPR trajectory: %s\n", report.Sparkline(vals))
	fmt.Printf("Summary: %s\n", rep.String())

	budget, err := forecast.BudgetFromReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Device budget: %.0f s client compute, %.1f Wh, %.1f%% wasted tasks\n",
		budget.ComputeSec, budget.EnergyWh, 100*budget.WastedFraction)
}
