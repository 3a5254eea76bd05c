// Command search reproduces the §4.3 search case study: a low-latency
// ranking model (Table 5's model A) trained federatedly on per-client query
// groups, evaluated with NDCG, plus the latency argument for on-device
// inference and the superuser quantity-skew observation.
package main

import (
	"fmt"
	"log"

	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/model"
	"flint/internal/partition"
	"flint/internal/report"
)

func main() {
	seed := int64(33)
	scale := core.Scale{
		Clients: 400, TestRecords: 2400, TraceDays: 14,
		MaxRounds: 150, EvalEvery: 15,
	}

	// Step 1 — latency budget: on-device ranking removes the network round
	// trip from the sub-100ms budget (§4.3).
	fmt.Println("== Step 1: latency budget ==")
	m, err := model.New(model.KindA, seed)
	if err != nil {
		log.Fatal(err)
	}
	cost := m.Cost()
	pool := device.BenchPool()
	infMs := cost.InferFLOPs / (pool[0].MatmulGFLOPS * 1e9) * 1000
	fmt.Printf("  model A on-device inference ≈ %.3f ms/candidate on a flagship device\n", infMs)
	fmt.Printf("  vs a centralized round trip of 30-100 ms — locally cached documents\n")
	fmt.Printf("  can be retrieved and ranked with zero network communication.\n\n")

	// Step 2 — the quantity skew of search data (Table 2, Dataset C).
	fmt.Println("== Step 2: dataset shape ==")
	spec, err := core.SpecFor(core.Search)
	if err != nil {
		log.Fatal(err)
	}
	_, gen, err := core.BuildEnvironment(spec, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	shards := make([]data.ClientShard, 0, scale.Clients)
	for id := int64(0); id < int64(scale.Clients); id++ {
		shards = append(shards, gen.GenerateClient(id))
	}
	stats := partition.ComputeStats("datasetC", shards, 61)
	fmt.Printf("  %s\n", stats)
	fmt.Println("  (paper: 16.4M clients, avg 1.53 records — most clients hold one query,")
	fmt.Println("   while \"superusers\" dominate the record mass)")
	fmt.Println()

	// Step 3 — FL training vs centralized, NDCG (Table 4 row).
	fmt.Println("== Step 3: federated ranking quality ==")
	res, err := core.RunCaseStudy(core.Search, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  centralized NDCG: %.4f\n", res.CentralizedMetric)
	fmt.Printf("  federated NDCG:   %.4f\n", res.FLMetric)
	fmt.Printf("  performance diff: %+.2f%%  (paper: -1.64%%)\n", res.PerfDiffPct)
	fmt.Printf("  projected training: %s (paper: 2.58 hrs at production scale)\n",
		report.Dur(res.TrainingVTimeSec))
	_, _, vals := res.Report.MetricSeries()
	fmt.Printf("  NDCG trajectory: %s\n", report.Sparkline(vals))
	fmt.Println()
	fmt.Println("  FL training additionally removes the store/ETL/retrain pipeline for")
	fmt.Println("  regular model refreshes (§4.3).")
}
