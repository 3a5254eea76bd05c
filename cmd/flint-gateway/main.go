// Command flint-gateway fronts a sharded coordination tier: N
// flint-server replicas (each started with -exchange pointing here and
// a distinct -shard-id) split the device-id space by consistent hash,
// and this gateway routes the public /v1 device API to the owning
// replica over pooled keep-alive connections. It also hosts the tier's
// round leader: shard partials arrive on the private /shard/v1
// exchange as codec wire blobs, get folded into the global model
// across shards, and GET /v1/status answers the same document a
// flint-server does, its shards' job rows and sums folded together, plus
// a tier section: membership health, exchange and routing counters, and
// one row per shard. While any replica's heartbeat is missing the
// tier halts task assignment (503 on /v1/task) until membership
// recovers — the paper's §3.4 halt-until-healthy rule run
// horizontally.
//
// The gateway must be started with the same -jobs file as its shards
// (or, like them, with none): the leader builds each job's initial
// global parameters from its spec, and a mismatch would make tier
// installs dimensionally incompatible with the shards' own models
// (caught at the first partial, but caught late).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"flint/internal/model"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/tensor"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs; list index = shard id (required)")
	grace := flag.Duration("grace", 3*time.Second, "heartbeat grace window; a shard silent longer halts the tier")
	jobsFile := flag.String("jobs", "", "the same JSON job-spec file the shards run with (default: the one job {\"name\":\"served\"})")
	flag.Parse()

	urls := strings.Split(*shards, ",")
	clean := urls[:0]
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, u)
		}
	}
	if len(clean) == 0 {
		log.Fatal("-shards: need at least one shard URL")
	}

	// The leader derives each job's initial global params exactly the
	// way a shard's tenant registry does: overlay the job's spec on
	// tenant.Base, then build the model it names. Same spec in,
	// bit-identical version-1 parameters out on both sides of the
	// exchange.
	specs, err := tenant.ReadSpecs(*jobsFile)
	if err != nil {
		log.Fatalf("-jobs: %v", err)
	}
	byName := make(map[string]tenant.JobSpec, len(specs))
	for _, sp := range specs {
		byName[sp.Name] = sp
	}
	params := func(job string) (tensor.Vector, error) {
		sp, ok := byName[job]
		if !ok {
			return nil, fmt.Errorf("job %q not in the gateway's spec set", job)
		}
		cfg, err := sp.CoordConfig(tenant.Base())
		if err != nil {
			return nil, err
		}
		m, err := model.New(cfg.ModelKind, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return m.Params(), nil
	}

	leader, err := shard.NewLeader(shard.LeaderConfig{Shards: len(clean), Grace: *grace, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	// Eager init of every job, so the rollup lists each one at a live
	// version (and a load generator's watcher has a baseline for its
	// job) before the first partial lands.
	for _, sp := range specs {
		if err := leader.EnsureJob(sp.Name); err != nil {
			log.Fatal(err)
		}
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{Shards: clean, Leader: leader})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tier: %d shards, grace %s, fold buffer %d, default job %q\n",
		len(clean), *grace, len(clean), specs[0].Name)
	for i, u := range clean {
		fmt.Printf("  shard %d: %s\n", i, u)
	}
	fmt.Printf("listening on %s (/v1/* routed by device id, /shard/v1/* exchange, GET /v1/status tier status)\n", *addr)
	log.Fatal(tenant.ListenAndServe(*addr, gw))
}
