// Command messaging reproduces the §4.2 messaging case study: synthetic
// (never-decrypted) proxy messages, embedding-size budgeting for on-device
// deployment, FL-vs-centralized comparison, and the security evaluation —
// data poisoning with and without robust aggregation.
package main

import (
	"fmt"
	"log"

	"flint"
	"flint/internal/aggregator"
	"flint/internal/data"
	"flint/internal/fedsim"
	"flint/internal/report"
)

func main() {
	seed := int64(21)
	scale := flint.Scale{
		Clients: 200, TestRecords: 2000, TraceDays: 14,
		MaxRounds: 600, EvalEvery: 50, MaxShardExamples: 250,
		SessionsPerDay: 6,
	}

	// Step 1 — embedding size budgeting (§4.2): a 500k-word, 300-dim
	// embedding is a ~600 MB asset; reducing to 50k x 50 fits the 10 MB
	// first-party constraint.
	fmt.Println("== Step 1: text embedding sizing ==")
	before := 500_000 * 300 * 4
	after := 50_000 * 50 * 4
	fmt.Printf("  original embedding: %s — prohibits on-device deployment\n", report.MB(before))
	fmt.Printf("  reduced embedding:  %s — %.0fx smaller, fits the 10 MB constraint\n",
		report.MB(after), float64(before)/float64(after))
	words := make([]string, 5000)
	for i := range words {
		words[i] = fmt.Sprintf("token_%d", i)
	}
	vocab := data.NewVocabulary(words)
	fmt.Printf("  vocab file alternative: %s asset vs feature hashing at %.1f%% collisions\n\n",
		report.MB(vocab.SizeBytes()), 100*data.CollisionRate(vocab.Size()-1, 4096))

	// Step 2 — FL vs centralized on synthetic messages (Table 4 row).
	fmt.Println("== Step 2: FL training on synthetic proxy messages ==")
	res, err := flint.RunCaseStudy(flint.Messaging, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  centralized AUPR: %.4f\n", res.CentralizedMetric)
	fmt.Printf("  federated AUPR:   %.4f\n", res.FLMetric)
	fmt.Printf("  performance diff: %+.2f%%  (paper: -0.18%%)\n", res.PerfDiffPct)
	fmt.Printf("  projected training: %s (paper: 18.9 hrs at production scale)\n\n",
		report.Dur(res.TrainingVTimeSec))

	// Step 3 — security: coordinated data poisoning (§4.2) evaluated with
	// and without a robust-aggregation defense.
	fmt.Println("== Step 3: poisoning evaluation ==")
	spec, err := flint.SpecFor(flint.Messaging)
	if err != nil {
		log.Fatal(err)
	}
	runWith := func(adv *aggregator.Adversary, trim float64) float64 {
		env, _, err := flint.BuildEnvironment(spec, scale, seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg := flint.AsyncConfig(spec, scale, seed)
		cfg.MaxRounds = 20
		cfg.Adversary = adv
		cfg.RobustTrimFrac = trim
		rep, err := fedsim.Run(cfg, env)
		if err != nil {
			log.Fatal(err)
		}
		best := 0.0
		for _, r := range rep.Rounds {
			if r.Evaluated() && r.Metric > best {
				best = r.Metric
			}
		}
		return best
	}
	attack := &aggregator.Adversary{Attack: aggregator.SignFlip{Scale: 4}, Fraction: 0.25, Seed: 5}
	clean := runWith(nil, 0)
	poisoned := runWith(attack, 0)
	defended := runWith(attack, 0.25)
	tbl := report.NewTable("Poisoning (25% compromised, sign-flip x4)", "condition", "best AUPR")
	tbl.AddRow("clean", fmt.Sprintf("%.4f", clean))
	tbl.AddRow("poisoned, FedBuff", fmt.Sprintf("%.4f", poisoned))
	tbl.AddRow("poisoned + trimmed-mean", fmt.Sprintf("%.4f", defended))
	fmt.Println(tbl.String())
	fmt.Println("  mitigation per §4.2: robust client-selection criteria (reputation, account age)")
	fmt.Println("  plus robust aggregation recover most of the clean-model quality.")
}
