// Command ads reproduces the §4.1 advertising case study end to end:
// participation criteria → availability trace (Table 1), proxy dataset with
// natural partitioning (Table 2 shape), mobile-ready model selection via
// on-device benchmarks (Table 5), FL-vs-centralized training (Table 4 row),
// and the §4.1 security notes (SecAgg throughput, hub-and-spoke poisoning).
package main

import (
	"fmt"
	"log"

	"flint/internal/aggregator"
	"flint/internal/availability"
	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/forecast"
	"flint/internal/model"
	"flint/internal/partition"
	"flint/internal/report"
)

func main() {
	seed := int64(7)
	scale := core.Scale{
		Clients: 250, TestRecords: 2500, TraceDays: 14,
		MaxRounds: 150, EvalEvery: 15, MaxShardExamples: 300,
	}

	// Step 1 — participation criteria and availability (§4.1, Table 1).
	fmt.Println("== Step 1: client participation and availability ==")
	logCfg := availability.DefaultLogConfig(scale.Clients, seed)
	sessions, err := availability.GenerateLog(logCfg)
	if err != nil {
		log.Fatal(err)
	}
	t1, err := availability.ComputeTable1(sessions)
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.NewTable("Table 1 — device availability after criteria", "criterion", "measured", "paper")
	tbl.AddRow("A: connected to WiFi", report.Pct(t1.WiFi), "70%")
	tbl.AddRow("B: battery >= 80%", report.Pct(t1.Battery), "34%")
	tbl.AddRow("C: OS release >= Sept 2019", report.Pct(t1.ModernOS), "93%")
	tbl.AddRow("A ∩ B ∩ C", report.Pct(t1.Intersect), "22%")
	fmt.Println(tbl.String())

	// Step 2 — proxy dataset (§4.1, Table 2 Dataset A shape).
	fmt.Println("== Step 2: proxy dataset ==")
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		log.Fatal(err)
	}
	env, gen, err := core.BuildEnvironment(spec, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	shards := make([]data.ClientShard, 0, scale.Clients)
	for id := int64(0); id < int64(scale.Clients); id++ {
		shards = append(shards, gen.GenerateClient(id))
	}
	stats := partition.ComputeStats("datasetA", shards, 90)
	fmt.Printf("  %s\n  (paper: pop 700k, max 39,731, avg 99, std 667, label 0.28)\n\n", stats)

	// Step 3 — mobile-ready model selection (§4.1, Table 5).
	fmt.Println("== Step 3: model selection (SDK size limit < 1 MB) ==")
	rows, err := device.Table5(device.BenchPool(), 1000, seed)
	if err != nil {
		log.Fatal(err)
	}
	sel := report.NewTable("Candidates", "model", "params", "storage", "network", "fits SDK (<1MB)")
	for _, r := range rows {
		if r.Model != model.KindA && r.Model != model.KindB && r.Model != model.KindC {
			continue
		}
		fits := "no"
		if r.StorageMB < 1.0 {
			fits = "yes"
		}
		sel.AddRow(string(r.Model), fmt.Sprintf("%d", r.Params),
			fmt.Sprintf("%.2f MB", r.StorageMB), fmt.Sprintf("%.2f MB", r.NetworkMB), fits)
	}
	fmt.Println(sel.String())
	fmt.Println("  Selected: model B (satisfies the 0.76 MB size requirement, §4.1)")
	fmt.Println()

	// Step 4 — systems and model performance (Table 4 row).
	fmt.Println("== Step 4: FL training vs centralized ==")
	res, err := core.RunCaseStudy(core.Ads, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  centralized AUPR:   %.4f\n", res.CentralizedMetric)
	fmt.Printf("  federated AUPR:     %.4f\n", res.FLMetric)
	fmt.Printf("  performance diff:   %+.2f%%  (paper: -1.85%%)\n", res.PerfDiffPct)
	fmt.Printf("  projected training: %s     (paper: 4.2 days at production scale)\n",
		report.Dur(res.TrainingVTimeSec))
	fmt.Printf("  tasks started %d, client compute %s\n\n",
		res.Report.TotalStarted, report.Dur(res.Report.TotalComputeSec))

	// Step 5 — security and privacy (§4.1).
	fmt.Println("== Step 5: security & privacy ==")
	tee, err := forecast.TEELoad(res.Report, env.UpdateBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  TEE ingest: %.2f updates/s, %.3f MB/s (paper projects <3 MB/s)\n",
		tee.UpdatesPerSec, tee.BytesPerSec/1e6)
	eps, err := aggregator.EpsilonApprox(0.7, len(res.Report.Rounds), 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  FL-DP at sigma=0.7 over %d rounds: epsilon ≈ %.1f (delta=1e-6)\n",
		len(res.Report.Rounds), eps)
	fmt.Println("  hub-and-spoke risk: see examples/messaging for the poisoning evaluation")
}
