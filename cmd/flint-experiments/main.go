// Command flint-experiments regenerates every table and figure of the paper
// in one run, printing paper-vs-measured rows. Expect several minutes at the
// default scale; the -quick run is recorded in testdata/transcripts/.
package main

import (
	"flag"
	"fmt"
	"log"

	"flint/internal/availability"
	"flint/internal/core"
	"flint/internal/data"
	"flint/internal/device"
	"flint/internal/fedsim"
	"flint/internal/forecast"
	"flint/internal/metrics"
	"flint/internal/model"
	"flint/internal/partition"
	"flint/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "experiment seed")
	quick := flag.Bool("quick", false, "reduced scale for smoke runs")
	flag.Parse()

	scale := core.MediumScale
	benchRecords := 5000
	table2Clients := [3]int{120_000, 120_000, 500_000}
	if *quick {
		scale = core.SmallScale
		benchRecords = 1000
		table2Clients = [3]int{20_000, 20_000, 50_000}
	}

	fig1(*seed)
	fig2AndTable1(*seed)
	table2(*seed, table2Clients)
	table5AndFig4(*seed, benchRecords)
	table3(scale, *seed)
	fig7(scale, *seed)
	fig8(scale, *seed)
	fig10(scale, *seed)
	table4(scale, *seed)
}

func fig1(seed int64) {
	pm := device.DefaultPopulation()
	pm.Seed = seed
	devs, err := pm.Sample(100000)
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.NewTable("Figure 1 — device distribution (100k users)",
		"platform", "distinct models", "top-8 share", "gray region", "paper shape")
	for _, plat := range []device.Platform{device.IOS, device.Android} {
		d := device.Distribution(devs, plat, 8)
		top := 0.0
		if len(d.TopShares) > 0 {
			top = d.TopShares[len(d.TopShares)-1]
		}
		shape := "concentrated"
		if plat == device.Android {
			shape = "diverse, long tail"
		}
		tbl.AddRow(string(plat), fmt.Sprintf("%d", d.DistinctModels), report.Pct(top), report.Pct(d.GrayShare), shape)
	}
	fmt.Println(tbl.String())
}

func fig2AndTable1(seed int64) {
	cfg := availability.DefaultLogConfig(4000, seed)
	sessions, err := availability.GenerateLog(cfg)
	if err != nil {
		log.Fatal(err)
	}
	t1, err := availability.ComputeTable1(sessions)
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.NewTable("Table 1 — availability after criteria", "criterion", "measured", "paper")
	tbl.AddRow("A: WiFi", report.Pct(t1.WiFi), "70%")
	tbl.AddRow("B: battery >= 80%", report.Pct(t1.Battery), "34%")
	tbl.AddRow("C: OS >= Sept 2019", report.Pct(t1.ModernOS), "93%")
	tbl.AddRow("A∩B∩C", report.Pct(t1.Intersect), "22%")
	fmt.Println(tbl.String())

	trace := availability.BuildTrace(sessions)
	series, err := availability.ComputeSeries(trace, 3600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 2 — weekly availability: %s\n", report.Sparkline(series.Normalized[:min(len(series.Normalized), 168)]))
	fmt.Printf("  peak/trough %.1fx (paper: trough ≈ 15%% of peak; post-criteria up to 14x)\n\n", series.PeakTroughRatio())
}

func table2(seed int64, clients [3]int) {
	type row struct {
		name     string
		q        data.QuantityModel
		pop      int
		paper    string
		lookback int
	}
	rows := []row{
		{"datasetA (ads)", data.AdsQuantity, clients[0], "pop 700k avg 99 std 667 max 39,731", 90},
		{"datasetB (messaging)", data.MessagingQuantity, clients[1], "pop 1.02M avg 184 std 374", 28},
		{"datasetC (search)", data.SearchQuantity, clients[2], "pop 16.4M avg 1.53 std 1.47 max 406", 61},
	}
	tbl := report.NewTable("Table 2 — proxy dataset quantity statistics",
		"dataset", "clients", "max", "avg", "std", "paper")
	for _, r := range rows {
		st, err := partition.QuantityStats(r.name, r.q, r.pop, 0, r.lookback, seed)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(r.name, fmt.Sprintf("%d", st.ClientPop), fmt.Sprintf("%d", st.MaxRecords),
			fmt.Sprintf("%.2f", st.AvgRecords), fmt.Sprintf("%.2f", st.StdRecords), r.paper)
	}
	fmt.Println(tbl.String())

	// Fig 5 — per-domain quantity distributions from materialized shards.
	gens := map[string]func() (data.Generator, error){
		"ads": func() (data.Generator, error) { return data.NewAdsGenerator(data.DefaultAdsConfig(300, seed)) },
		"messaging": func() (data.Generator, error) {
			return data.NewMessagingGenerator(data.DefaultMessagingConfig(300, seed))
		},
		"search": func() (data.Generator, error) { return data.NewSearchGenerator(data.DefaultSearchConfig(300, seed)) },
	}
	fmt.Println("Figure 5 — client data-quantity distributions (300 clients/domain):")
	for _, name := range []string{"ads", "messaging", "search"} {
		gen, err := gens[name]()
		if err != nil {
			log.Fatal(err)
		}
		var qs []float64
		for id := int64(0); id < 300; id++ {
			qs = append(qs, float64(len(gen.GenerateClient(id).Examples)))
		}
		sum := 0.0
		maxQ := 0.0
		for _, q := range qs {
			sum += q
			if q > maxQ {
				maxQ = q
			}
		}
		fmt.Printf("  %-10s mean %7.1f max %7.0f\n", name, sum/float64(len(qs)), maxQ)
	}
	fmt.Println()
}

func table5AndFig4(seed int64, records int) {
	pool := device.BenchPool()
	rows, err := device.Table5(pool, records, seed)
	if err != nil {
		log.Fatal(err)
	}
	paper := map[model.Kind]string{
		model.KindA: "0.057MB 0.11MB 3.08MB 4.98s ±3.37 1.63%",
		model.KindB: "0.76MB 1.52MB 10.64MB 61.81s ±44.17 3.91%",
		model.KindC: "0.85MB 1.88MB 0.85MB 3.26s ±2.23 5.29%",
		model.KindD: "10.79MB 3.12MB 8.37MB 70.13s ±50.82 4.72%",
		model.KindE: "7.52MB 7.38MB 43.14MB 238.38s ±178.13 6.43%",
	}
	tbl := report.NewTable(fmt.Sprintf("Table 5 — on-device benchmarks (%d records, %d devices)", records, len(pool)),
		"model", "params", "storage", "network", "memory", "mean", "stdev", "cpu%", "paper")
	for _, r := range rows {
		tbl.AddRow(string(r.Model), fmt.Sprintf("%d", r.Params),
			fmt.Sprintf("%.3f MB", r.StorageMB), fmt.Sprintf("%.2f MB", r.NetworkMB),
			fmt.Sprintf("%.2f MB", r.MemoryMB),
			fmt.Sprintf("%.2f s", r.MeanTimeS), fmt.Sprintf("%.2f s", r.StdevTimeS),
			fmt.Sprintf("%.2f", r.MeanCPU), paper[r.Model])
	}
	fmt.Println(tbl.String())

	// Fig 4 — ordering inversions across two tasks.
	fmt.Println("Figure 4 — heterogeneity: per-device time for tasks A (model B) and B (model E), s/record:")
	for _, p := range []string{"iPhone-13", "OnePlus-9", "Pixel-5", "Galaxy-J7"} {
		prof := device.ByName(pool)[p]
		ra, err := device.Run(model.KindB, prof, 100, seed)
		if err != nil {
			log.Fatal(err)
		}
		rb, err := device.Run(model.KindE, prof, 100, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s taskA %.4f  taskB %.4f\n", p, ra.SecPerRecord, rb.SecPerRecord)
	}
	fmt.Println()
}

func table3(scale core.Scale, seed int64) {
	tbl := report.NewTable("Table 3 — FedBuff speedup over FedAvg (shared quality target)",
		"task", "speedup", "async tasks started", "client compute", "paper")
	paper := map[core.Domain]string{
		core.Ads:       "1.2x, 48.8k tasks, 7.5 hrs",
		core.Messaging: "6x, 32.3k tasks, 6.8 days",
		core.Search:    "2x, 610k tasks, 25.9 days",
	}
	for _, d := range core.Domains {
		cmp, err := core.CompareModes(d, scale, seed, 0.97)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(string(d), fmt.Sprintf("%.2fx", cmp.SpeedUp),
			fmt.Sprintf("%d", cmp.AsyncTasksStarted),
			report.Dur(cmp.AsyncComputeSec), paper[d])
	}
	fmt.Println(tbl.String())
}

func fig7(scale core.Scale, seed int64) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 7 — buffer size vs buffer-fill duration (async):")
	for _, buf := range []int{2, 5, 10, 20, 40} {
		env, _, err := core.BuildEnvironment(spec, scale, seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.AsyncConfig(spec, scale, seed)
		cfg.BufferSize = buf
		cfg.MaxRounds = 12
		cfg.EvalEvery = 0
		rep, err := fedsim.Run(cfg, env)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  buffer %3d: mean fill %s over %d rounds\n",
			buf, report.Dur(rep.MeanBufferFillSec()), len(rep.Rounds))
	}
	fmt.Println()
}

func fig8(scale core.Scale, seed int64) {
	spec, err := core.SpecFor(core.Ads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 8 — succeeded / interrupted / stale vs concurrency and staleness:")
	for _, conc := range []int{8, 32, 128} {
		for _, stale := range []int{1, 5, 20} {
			env, _, err := core.BuildEnvironment(spec, scale, seed)
			if err != nil {
				log.Fatal(err)
			}
			cfg := core.AsyncConfig(spec, scale, seed)
			cfg.Concurrency = conc
			cfg.MaxStaleness = stale
			cfg.BufferSize = 4
			cfg.MaxRounds = 30
			cfg.EvalEvery = 0
			rep, err := fedsim.Run(cfg, env)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  concurrency %4d staleness %3d: started %5d ok %5d interrupted %4d stale %4d\n",
				conc, stale, rep.TotalStarted, rep.TotalSucceeded, rep.TotalInterrupted, rep.TotalStale)
		}
	}
	fmt.Println()
}

func fig10(scale core.Scale, seed int64) {
	schedules := []model.Schedule{
		model.ExpDecayLR{Base: 0.3, Rate: 0.9, DecaySteps: 20, Floor: 0.02},
		model.ExpDecayLR{Base: 1.2, Rate: 0.98, DecaySteps: 20, Floor: 0.02},
	}
	lrScale := scale
	lrScale.MaxRounds = 20
	out, err := core.RunLRStudy(lrScale, schedules, 5, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 10 — LR schedule stability (5 trials each, AUPR trajectories):")
	for _, sched := range schedules {
		fmt.Printf("  %s\n", sched)
		var finals []float64
		for _, tr := range out[sched.String()] {
			fmt.Printf("    %s final %.4f\n", report.Sparkline(tr.Metrics), tr.Final)
			finals = append(finals, tr.Final)
		}
		sum := metrics.Summarize(finals)
		fmt.Printf("    across trials: mean %.4f stdev %.4f\n", sum.Mean, sum.Std)
	}
	fmt.Println()
}

func table4(scale core.Scale, seed int64) {
	paper := map[core.Domain]string{
		core.Ads:       "4.2 days, -1.85%",
		core.Messaging: "18.9 hrs, -0.18%",
		core.Search:    "2.58 hrs, -1.64%",
	}
	tbl := report.NewTable("Table 4 — projected FL training time and performance difference",
		"domain", "metric", "centralized", "federated", "diff", "training time", "paper")
	for _, d := range core.Domains {
		res, err := core.RunCaseStudy(d, scale, seed)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(string(d), string(res.Metric),
			fmt.Sprintf("%.4f", res.CentralizedMetric),
			fmt.Sprintf("%.4f", res.FLMetric),
			fmt.Sprintf("%+.2f%%", res.PerfDiffPct),
			report.Dur(res.TrainingVTimeSec), paper[d])
		budget, err := forecast.BudgetFromReport(res.Report)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: client compute %s, %d tasks started\n",
			d, report.Dur(budget.ComputeSec), budget.TasksStarted)
	}
	fmt.Println(tbl.String())
}
