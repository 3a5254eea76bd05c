// Command flint-gateway fronts a sharded coordination tier: N
// flint-server replicas (each started with -exchange pointing here and
// a distinct -shard-id) split the device-id space by consistent hash,
// and this gateway routes the public /v1 device API to the owning
// replica over pooled keep-alive connections. It also hosts the tier's
// round leader: shard partials arrive on the private /shard/v1
// exchange as codec wire blobs, get folded into the global model
// across shards, and GET /v1/status rolls every replica's status up
// into one tier document. While any replica's heartbeat is missing the
// tier halts task assignment (503 on /v1/task) until membership
// recovers — the paper's §3.4 halt-until-healthy rule run
// horizontally.
//
// The gateway must be started with the same model flags (-model,
// -seed, -name, or the same -jobs file) as its shards: the leader
// builds each job's initial global parameters from them, and a
// mismatch would make tier installs dimensionally incompatible with
// the shards' own models (caught at the first partial, but caught
// late).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"flint/internal/coord"
	"flint/internal/model"
	"flint/internal/shard"
	"flint/internal/tenant"
	"flint/internal/tensor"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs; list index = shard id (required)")
	grace := flag.Duration("grace", 3*time.Second, "heartbeat grace window; a shard silent longer halts the tier")
	serverLR := flag.Float64("server-lr", 1, "cross-shard fold server learning rate")
	alpha := flag.Float64("alpha", 0, "cross-shard fold staleness-discount exponent")
	kind := flag.String("model", "A", "Table 5 model kind the tier trains (must match the shards)")
	name := flag.String("name", "served", "default job name (must match the shards' -name)")
	seed := flag.Int64("seed", 1, "model init seed (must match the shards)")
	jobsFile := flag.String("jobs", "", "multi-tenant tier: the same JSON job-spec file the shards run with")
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
	// way a shard's tenant registry does: overlay the job's spec on the
	// flag-derived base config, then build the model it names. Same
	// spec in, bit-identical version-1 parameters out on both sides of
	// the exchange.
	base := coord.Config{ModelKind: model.Kind(*kind), ModelName: *name, Seed: *seed}
	specs := []tenant.JobSpec{{Name: *name}}
	if *jobsFile != "" {
		data, err := os.ReadFile(*jobsFile)
		if err != nil {
			log.Fatalf("-jobs: %v", err)
		}
		if specs, err = tenant.LoadSpecs(data); err != nil {
			log.Fatalf("-jobs: %v", err)
		}
		if len(specs) == 0 {
			log.Fatalf("-jobs: %s declares no jobs", *jobsFile)
		}
	}
	byName := make(map[string]tenant.JobSpec, len(specs))
	for _, sp := range specs {
		byName[sp.Name] = sp
	}
	defaultJob := specs[0].Name
	params := func(job string) (tensor.Vector, error) {
		if job == "" {
			job = defaultJob
		}
		sp, ok := byName[job]
		if !ok {
			return nil, fmt.Errorf("job %q not in the gateway's spec set", job)
		}
		cfg, err := sp.CoordConfig(base)
		if err != nil {
			return nil, err
		}
		m, err := model.New(cfg.ModelKind, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return m.Params(), nil
	}

	leader, err := shard.NewLeader(shard.LeaderConfig{
		Shards:         len(clean),
		Grace:          *grace,
		ServerLR:       *serverLR,
		StalenessAlpha: *alpha,
		Params:         params,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Eager default-job init so the rollup reports a live version (and
	// the fleet generator's watcher has a baseline) before the first
	// partial lands.
	if err := leader.EnsureJob(defaultJob); err != nil {
		log.Fatal(err)
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{
		Shards:     clean,
		Leader:     leader,
		DefaultJob: defaultJob,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tier: %d shards, grace %s, fold buffer %d, default job %q\n",
		len(clean), *grace, len(clean), defaultJob)
	for i, u := range clean {
		fmt.Printf("  shard %d: %s\n", i, u)
	}
	fmt.Printf("listening on %s (/v1/* routed by device id, /shard/v1/* exchange, GET /v1/status tier rollup)\n", *addr)
	log.Fatal(tenant.ListenAndServe(*addr, gw))
}
