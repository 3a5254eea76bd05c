// Command flint-server runs the live federated coordination service: the
// wall-clock serving counterpart of cmd/flint-sim's virtual-clock simulator.
// Devices check in, receive training tasks, and submit updates over the
// /v1 JSON API; the server runs sync FedAvg or async FedBuff rounds and
// publishes model versions. Pair it with cmd/flint-fleet for load.
//
// A job is a spec: everything about a job — mode, model, round size,
// deadline, reducer, privacy, wire schemes, quota, token — lives in the
// JSON job-spec file named by -jobs, and the flags set only the process
// (listen address, admin API, store, device TTL, time compression,
// exchange, logging). Each spec in the file
// becomes an independent job behind /v1/jobs/<name>/..., the first spec
// is the default job the bare /v1/* paths alias to, and per-job device
// quotas and bearer tokens gate admission. Without -jobs the server runs
// the one job {"name":"served"} on tenant.Base's settings.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"flint/internal/model"
	"flint/internal/sched"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/transport"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobsFile := flag.String("jobs", "", "JSON file of job specs, one job each (default: the one job {\"name\":\"served\"})")
	admin := flag.Bool("admin", false, "enable POST /v1/jobs job registration")
	ttl := flag.Duration("ttl", 2*time.Minute, "device liveness TTL")
	schedCompression := flag.Float64("sched-time-compression", 1, "virtual-time fleets: device-reported timings arrive this many times faster than wall clock (match flint-fleet -virtual -compression)")
	exchange := flag.String("exchange", "", "shard mode: gateway base URL for the tier exchange (the server becomes one replica of a sharded tier)")
	shardID := flag.Int("shard-id", 0, "shard mode: this replica's index on the gateway's ring")
	shardHB := flag.Duration("shard-heartbeat", time.Second, "shard mode: tier heartbeat interval (must be well under the leader's grace window)")
	storeDir := flag.String("store-dir", "", "persist published model versions to this directory (one subdirectory per job)")
	keepVersions := flag.Int("keep-versions", 8, "published model versions to retain (negative keeps all)")
	statusEvery := flag.Duration("status-every", 5*time.Second, "periodic status log interval (0 disables)")
	flag.Parse()

	specs, err := tenant.ReadSpecs(*jobsFile)
	if err != nil {
		log.Fatalf("-jobs: %v", err)
	}
	cfg := tenant.Base()
	cfg.DeviceTTL = *ttl
	cfg.Sched.TimeCompression = *schedCompression
	cfg.StoreDir = *storeDir
	cfg.KeepVersions = *keepVersions
	if *exchange != "" {
		// Shard mode: commits reduce to partials shipped to the tier
		// leader behind the gateway, and a heartbeat keeps this replica
		// counted in the tier's membership (stop pinging and the tier
		// halts — the paper's §3.4 rule run horizontally).
		cfg.Exchange = shard.NewHTTPExchange(*exchange)
		cfg.ShardID = *shardID
	}
	reg := tenant.NewRegistry(cfg)
	defer reg.Close()
	for _, sp := range specs {
		if _, err := reg.Register(sp); err != nil {
			log.Fatal(err)
		}
	}
	if *exchange != "" {
		hb := shard.StartHeartbeat(shard.NewHTTPExchange(*exchange), *shardID, *shardHB)
		defer hb.Stop()
		fmt.Printf("shard %d of tier at %s (heartbeat every %s)\n", *shardID, *exchange, *shardHB)
	}

	if *statusEvery > 0 {
		go func() {
			for range time.Tick(*statusEvery) {
				for _, j := range reg.Jobs() {
					st := j.Coord.Status()
					log.Printf("[%s] v%d round=%d phase=%s collected=%d/%d devices: %d live, %d eligible, %d assigned",
						j.Spec.Name, st.Version, st.Round.ID, st.Round.Phase, st.Round.Collected, st.Round.Target,
						st.Devices.Live, st.Devices.Eligible, st.Devices.Assigned)
				}
			}
		}()
	}

	for _, j := range reg.Jobs() {
		eff := j.Coord.Config()
		guard := "open"
		switch {
		case j.Spec.Token != "" && eff.MaxDevices > 0:
			guard = fmt.Sprintf("token auth, quota %d", eff.MaxDevices)
		case j.Spec.Token != "":
			guard = "token auth"
		case eff.MaxDevices > 0:
			guard = fmt.Sprintf("quota %d", eff.MaxDevices)
		}
		fmt.Printf("job %s: %s mode, model %s (%d params), target %d, quorum %d, deadline %s (%s)\n",
			j.Spec.Name, eff.Mode, eff.ModelKind, mustParams(eff.ModelKind, eff.Seed),
			eff.TargetUpdates, eff.Quorum, eff.RoundDeadline, guard)
		tr := eff.Transport
		fmt.Printf("  wire: default cohort %s/%s/%s (delta depth %d); lowbw %s/%s/%s (delta depth %d)\n",
			tr.Default.Task, tr.Default.Update, tr.Default.Delta, tr.DepthFor(transport.CohortDefault),
			tr.LowBW.Task, tr.LowBW.Update, tr.LowBW.Delta, tr.DepthFor(transport.CohortLowBW))
		if agg := eff.Aggregation; agg.Strategy != "" || agg.ScreenMaxNorm > 0 || agg.ScreenMedianFactor > 0 {
			line := "  robust: " + j.Coord.Status().Aggregation
			if agg.Strategy == "trimmed-mean" {
				line += fmt.Sprintf(" (trim %.2f/side)", agg.TrimFrac)
			}
			if agg.ScreenMaxNorm > 0 {
				line += fmt.Sprintf(", norm screen ≤ %.3g", agg.ScreenMaxNorm)
			}
			if agg.ScreenMedianFactor > 0 {
				line += fmt.Sprintf(", norm screen ≤ %.3g× median", agg.ScreenMedianFactor)
			}
			fmt.Println(line)
		}
		if eff.DP.Enabled() {
			if eff.DP.Epsilon > 0 {
				fmt.Printf("  privacy: central DP, ε=%.3g/round at δ=%.0e, clip %.3g, seed %d\n",
					eff.DP.Epsilon, eff.DP.Delta, eff.DP.ClipNorm, eff.DP.Seed)
			} else {
				fmt.Printf("  privacy: aggregate clip %.3g (no noise)\n", eff.DP.ClipNorm)
			}
		}
	}
	def := reg.Default()
	fmt.Printf("sched: lowbw < %.2f Mbps measured downlink, deadline gate (sync), over-commit ≤ %.1fx, rebuild every %s, telemetry TTL %s\n",
		sched.LowBWBps*8/1e6, sched.MaxOverCommit, def.Coord.Config().Sched.RebuildEvery, sched.TelemetryTTL)
	fmt.Printf("listening on %s (/v1/* → default job %q, /v1/jobs/<job>/*, GET /v1/status rollup; admin registration %v)\n",
		*addr, def.Spec.Name, *admin)
	srv := tenant.NewServer(reg, *admin)
	log.Fatal(tenant.ListenAndServe(*addr, srv))
}

func mustParams(kind model.Kind, seed int64) int {
	m, err := model.New(kind, seed)
	if err != nil {
		log.Fatal(err)
	}
	return m.NumParams()
}
