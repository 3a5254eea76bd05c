// Command flint-sim runs one FL simulation job (§3.4) for a case-study
// domain in either training mode and prints model and system metrics over
// rounds and virtual time.
package main

import (
	"flag"
	"fmt"
	"log"

	"flint/internal/core"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/report"
)

func main() {
	domainFlag := flag.String("domain", "ads", "case-study domain: ads | messaging | search")
	mode := flag.String("mode", "fedbuff", "training mode: fedavg | fedbuff")
	clients := flag.Int("clients", 300, "client population")
	rounds := flag.Int("rounds", 40, "max aggregation rounds")
	evalEvery := flag.Int("eval", 5, "evaluate every N rounds")
	concurrency := flag.Int("concurrency", 32, "async max concurrency")
	buffer := flag.Int("buffer", 8, "async buffer size K")
	staleness := flag.Int("staleness", 10, "async staleness limit")
	cohort := flag.Int("cohort", 8, "sync cohort size")
	seed := flag.Int64("seed", 1, "job seed")
	flag.Parse()

	d := core.Domain(*domainFlag)
	spec, err := core.SpecFor(d)
	if err != nil {
		log.Fatal(err)
	}
	scale := core.Scale{
		Clients: *clients, TestRecords: 8 * *clients, TraceDays: 14,
		MaxRounds: *rounds, EvalEvery: *evalEvery, MaxShardExamples: 400,
	}
	env, _, err := core.BuildEnvironment(spec, scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var cfg fedsim.Config
	switch *mode {
	case "fedavg":
		cfg = core.SyncConfig(spec, scale, *seed)
		cfg.CohortSize = *cohort
	case "fedbuff":
		cfg = core.AsyncConfig(spec, scale, *seed)
		cfg.Concurrency = *concurrency
		cfg.BufferSize = *buffer
		cfg.MaxStaleness = *staleness
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	rep, err := fedsim.Run(cfg, env)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FLINT simulation — domain %s, mode %s, model %s\n\n", d, cfg.Mode, cfg.ModelKind)
	tbl := report.NewTable("Rounds", "round", "vtime", string(spec.Metric), "lr", "started", "ok", "stale", "interrupted", "stragglers")
	for _, r := range rep.Rounds {
		metric := "-"
		if r.Evaluated() {
			metric = fmt.Sprintf("%.4f", r.Metric)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", r.Round), report.Dur(r.VTime), metric,
			fmt.Sprintf("%.3f", r.LR),
			fmt.Sprintf("%d", r.Started), fmt.Sprintf("%d", r.Succeeded),
			fmt.Sprintf("%d", r.Stale), fmt.Sprintf("%d", r.Interrupted),
			fmt.Sprintf("%d", r.Stragglers),
		)
	}
	fmt.Println(tbl.String())
	_, _, vals := rep.MetricSeries()
	fmt.Printf("%s trajectory: %s\n", spec.Metric, report.Sparkline(vals))
	fmt.Printf("Summary: %s\n\n", rep.String())

	budget, err := forecast.BudgetFromReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	tee, err := forecast.TEELoad(rep, env.UpdateBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Forecast: client compute %s, energy %.1f Wh, wasted tasks %.1f%%\n",
		report.Dur(budget.ComputeSec), budget.EnergyWh, 100*budget.WastedFraction)
	fmt.Printf("          TEE ingest %.3f updates/s = %.4f MB/s\n",
		tee.UpdatesPerSec, tee.BytesPerSec/1e6)
}
