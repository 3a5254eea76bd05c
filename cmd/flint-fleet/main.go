// Command flint-fleet is the load generator for cmd/flint-server: it spins
// up thousands of goroutine "devices" sampled from the Fig 1 population
// model (bench-pool profiles plus the Zipf long tail), drives full training
// rounds over the /v1 API — check in, pull task, simulate profile-scaled
// local training, submit an update — and reports throughput and client-side
// latency percentiles.
//
// Example:
//
//	flint-server -mode async -target 64 &
//	flint-fleet -server http://127.0.0.1:8080 -devices 2000 -rounds 5
//
// Against a multi-tenant server, -jobs splits the device budget across
// tenants — "-jobs ads,messaging=s3cret" drives half the devices at job
// ads and half at job messaging (authenticating with its token), with
// disjoint device IDs per job.
//
// Against a sharded coordination tier, -gateway points the same fleet at
// cmd/flint-gateway: the run waits for the tier to report healthy, then
// drives rounds through the gateway's device routing — every other flag
// (churn, bandwidth, fractions) works unchanged.
//
// -virtual switches to the virtual-time load plane (internal/vload):
// instead of a goroutine per device, batched virtual devices are
// multiplexed over event heaps in compressed virtual time, scaling the
// same protocol traffic to hundreds of thousands or millions of devices.
// The server must run with a matching -sched-time-compression so
// device-reported virtual timings land in the right clock domain:
//
//	flint-server -mode sync -target 64 -sched-time-compression 360 &
//	flint-fleet -virtual -devices 1000000 -compression 360 -vduration 24h
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"flint/internal/fleet"
	"flint/internal/network"
	"flint/internal/vload"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "coordination server base URL")
	devices := flag.Int("devices", 1000, "simulated device count")
	rounds := flag.Int("rounds", 3, "committed rounds to drive before stopping")
	seed := flag.Int64("seed", 1, "population and behavior seed")
	think := flag.Duration("think", 20*time.Millisecond, "mean device think time between protocol steps")
	computeScale := flag.Float64("compute-scale", 1, "scale simulated local-training time (0 disables)")
	deltaScale := flag.Float64("delta-scale", 0.01, "synthetic update delta magnitude")
	deltaBias := flag.Float64("delta-bias", 0, "constant per-coordinate drift added to honest deltas (makes poison-induced divergence visible in model_norm)")
	poisonFraction := flag.Float64("poison-fraction", 0, "share of devices under adversary control (deterministic per seed; 0 disables)")
	poisonMode := flag.String("poison-mode", "sign-flip", "attack compromised devices mount: sign-flip or random-noise")
	poisonScale := flag.Float64("poison-scale", 10, "attack boost factor (sign-flip amplification / noise std multiplier)")
	jsonFraction := flag.Float64("json-fraction", 0, "share of devices on the JSON protocol: no capability list, full broadcast (0 = all negotiated binary, 1 = all JSON)")
	bandwidth := flag.Float64("bandwidth", 0, "simulate per-device links: median downlink Mbps (0 disables; uplink at 40%)")
	churn := flag.Bool("churn", false, "drive availability from a generated diurnal session trace instead of an always-on loop")
	traceScale := flag.Float64("trace-scale", 60, "churn: trace seconds replayed per wall second")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run deadline")
	jobs := flag.String("jobs", "", "multi-tenant: comma-separated job list (name or name=token); devices split evenly across jobs with disjoint IDs")
	gateway := flag.Bool("gateway", false, "-server is a shard-tier gateway (flint-gateway): wait for tier health, then watch the rollup for round progress")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	virtual := flag.Bool("virtual", false, "virtual-time load plane: multiplex batched virtual devices over event heaps in compressed virtual time (vload)")
	compression := flag.Float64("compression", 60, "virtual: virtual seconds per wall second (server needs a matching -sched-time-compression)")
	vduration := flag.Duration("vduration", 24*time.Hour, "virtual: virtual time to simulate (24h = one diurnal cycle)")
	vworkers := flag.Int("vworkers", 0, "virtual: event-loop workers / connection-pool bound (0 = 4 x GOMAXPROCS)")
	vbatch := flag.Int("vbatch", 2048, "virtual: devices per POST /v1/checkin/batch request")
	vthink := flag.Duration("vthink", 120*time.Second, "virtual: mean in-session re-poll interval, in virtual time")
	vsessions := flag.Float64("vsessions", 3, "virtual: mean device sessions per virtual day (diurnally modulated)")
	flag.Parse()

	var bw *network.BandwidthModel
	if *bandwidth > 0 {
		m := network.Default
		m.MedianMbps = *bandwidth
		bw = &m
	}
	if *virtual {
		if *jobs != "" {
			log.Fatal("-virtual and -jobs cannot be combined: the virtual-time load plane drives only the server's default job")
		}
		rep, err := vload.Run(vload.Config{
			BaseURL:         *server,
			Gateway:         *gateway,
			Devices:         *devices,
			Compression:     *compression,
			VirtualDuration: *vduration,
			Rounds:          *rounds,
			Seed:            *seed,
			Workers:         *vworkers,
			Batch:           *vbatch,
			Think:           *vthink,
			SessionsPerDay:  *vsessions,
			Bandwidth:       bw,
			Timeout:         *timeout,
		})
		if rep != nil {
			if *jsonOut {
				printJSON(rep)
			} else {
				fmt.Print(rep.String())
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	base := fleet.Config{
		BaseURL:        *server,
		Devices:        *devices,
		Rounds:         *rounds,
		Seed:           *seed,
		ThinkTime:      *think,
		ComputeScale:   *computeScale,
		DeltaScale:     *deltaScale,
		DeltaBias:      *deltaBias,
		PoisonFraction: *poisonFraction,
		PoisonMode:     *poisonMode,
		PoisonScale:    *poisonScale,
		JSONFraction:   *jsonFraction,
		Bandwidth:      bw,
		Churn:          *churn,
		TraceScale:     *traceScale,
		Timeout:        *timeout,
		Gateway:        *gateway,
	}
	if *jobs != "" {
		runJobs(base, *jobs, *jsonOut)
		return
	}
	rep, err := fleet.Run(base)
	if rep != nil {
		if *jsonOut {
			printJSON(rep)
		} else {
			fmt.Print(rep.String())
			// The per-server counter block only applies to a flat
			// coordinator: a gateway's rollup carries tier state
			// instead, already rendered by the report line above.
			if st := rep.FinalStatus; st != nil && rep.TierShards == 0 {
				fmt.Printf("  server: mode=%s model=%s committed=%d abandoned=%d accepted=%d shed=%d\n",
					st.Mode, st.ModelKind, st.Counters["rounds_committed"],
					st.Counters["rounds_abandoned"], st.Counters["update_accepted"],
					st.Counters["update_rejected_busy"])
				fmt.Printf("  protocol: %d binary tasks (%d delta), %d json tasks, %d binary updates, %d json updates\n",
					st.Counters["task_sent_binary"], st.Counters["task_sent_delta"],
					st.Counters["task_sent_json"],
					st.Counters["update_recv_binary"], st.Counters["update_recv_json"])
				if st.Counters["updates_screened_norm"] > 0 || st.Privacy != nil {
					fmt.Printf("  defense: %s, %d updates norm-screened, %d rounds aborted all-screened\n",
						st.Aggregation, st.Counters["updates_screened_norm"],
						st.Counters["round_aggregate_robust_error"])
				}
				fmt.Printf("  downlink: %.2f MiB full broadcast, %.2f MiB delta (%d cache hits, %d misses, %d aged bases)\n",
					float64(st.Counters["broadcast_bytes_full"])/(1<<20),
					float64(st.Counters["broadcast_bytes_delta"])/(1<<20),
					st.Counters["delta_cache_hits"], st.Counters["delta_cache_misses"],
					st.Counters["delta_base_aged"])
				if sr := st.Scheduler; sr.Enabled {
					fmt.Printf("  sched: %d/%d devices measured, %d remapped off their radio label; on-time %.0f%%, over-commit x%.2f, est task p50/p90/p99 %.2f/%.2f/%.2fs (%d deadline denials)\n",
						sr.Measured, sr.Devices, sr.Remapped, sr.OnTimeFraction*100, sr.OverCommitScale,
						sr.EstTaskP50Sec, sr.EstTaskP90Sec, sr.EstTaskP99Sec,
						st.Counters["task_denied_deadline"])
					for _, name := range []string{"default", "lowbw"} {
						if cs := sr.Cohorts[name]; cs != nil {
							fmt.Printf("  sched cohort %-7s %4d devices, bandwidth hist %v\n", name, cs.Devices, cs.BandwidthHist)
						}
					}
				}
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// printJSON writes one indented JSON report document to stdout.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// runJobs drives one fleet per tenant concurrently: the device budget
// splits evenly (remainder to the first jobs), each job's fleet gets a
// disjoint device-ID range and its own seed, and tokens ride along from
// the name=token syntax.
func runJobs(base fleet.Config, list string, jsonOut bool) {
	type jobTarget struct {
		name, token string
	}
	var targets []jobTarget
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, token, _ := strings.Cut(part, "=")
		targets = append(targets, jobTarget{name: name, token: token})
	}
	if len(targets) == 0 {
		log.Fatal("-jobs: no job names given")
	}
	per := base.Devices / len(targets)
	rem := base.Devices % len(targets)
	var wg sync.WaitGroup
	reps := make([]*fleet.Report, len(targets))
	errs := make([]error, len(targets))
	offset := int64(0)
	for i, t := range targets {
		cfg := base
		cfg.Job, cfg.Token = t.name, t.token
		cfg.Devices = per
		if i < rem {
			cfg.Devices++
		}
		cfg.IDOffset = offset
		offset += int64(cfg.Devices)
		cfg.Seed = base.Seed + int64(i)*1_000_003
		wg.Add(1)
		go func(i int, cfg fleet.Config) {
			defer wg.Done()
			reps[i], errs[i] = fleet.Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	failed := false
	for i, t := range targets {
		if jsonOut {
			if reps[i] != nil {
				printJSON(struct {
					Job string `json:"job"`
					*fleet.Report
				}{Job: t.name, Report: reps[i]})
			}
		} else if reps[i] != nil {
			fmt.Printf("=== job %s ===\n%s", t.name, reps[i].String())
		}
		if errs[i] != nil {
			failed = true
			log.Printf("job %s: %v", t.name, errs[i])
		}
	}
	if failed {
		os.Exit(1)
	}
}
