// Command optd is the optimization job server: an HTTP/JSON front end over
// the internal/jobs manager. It multiplexes many concurrent optimization
// runs over one shared sampling worker fleet, streams per-iteration progress,
// and (with -checkpoint-dir) persists checkpoints so a killed server resumes
// its jobs bitwise-deterministically on restart. -store picks the layout of
// a new checkpoint directory only: a directory that already holds records
// reopens in its own layout, so a restart under another -store still
// recovers every job.
//
// With -fleet-addr the server also opens a worker-registration listener:
// remote optworker agents dial it, and jobs submitted with "fleet": true run
// their sampling over that fleet — bitwise identical to in-process runs,
// surviving worker death via deterministic re-dispatch. /healthz reports the
// fleet's workers, capacity and queue depths.
//
// Example session:
//
//	optd -addr :8080 -fleet-addr :9090 -checkpoint-dir /var/lib/optd &
//	optworker -connect localhost:9090 -capacity 4 &
//	optworker -connect localhost:9090 -capacity 4 &
//	curl -s localhost:8080/healthz                 # build info, uptime, pool width, job counts
//	curl -s localhost:8080/strategies              # what this server can run
//	curl -s localhost:8080/v1/jobs -d '{"objective":"rosenbrock","dim":3,"algorithm":"pc","sigma0":100,"seed":7,"max_iterations":200}'
//	curl -s localhost:8080/v1/jobs -d '{"objective":"rastrigin","dim":2,"algorithm":"hybrid","sigma0":2,"seed":7,"particles":20,"swarm_iterations":40}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/trace   # NDJSON progress stream
//	curl -s localhost:8080/v1/jobs/j000001/result
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/h1"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address")
		fleetAddr  = flag.String("fleet-addr", "", "remote-worker registration address (empty = no remote fleet)")
		maxConc    = flag.Int("max-concurrent", 4, "jobs running simultaneously")
		workers    = flag.Int("workers", 0, "shared sampling fleet size (0 = GOMAXPROCS)")
		schedPol   = flag.String("sched-policy", "fair", "tenant order of costed in-process sampling on the shared pool: fair (weighted fair-share) or fifo (single global queue); optd sets no sampling cost, so no optd job reaches that pool")
		ckptDir    = flag.String("checkpoint-dir", "", "durable checkpoint directory (empty = no durability)")
		storeKind  = flag.String("store", "file", "layout of a new checkpoint directory: file (one file per job) or wal (append-only log); a directory that holds records reopens in its own layout")
		ckptEvery  = flag.Int("checkpoint-every", 20, "iterations between checkpoints")
		seed       = flag.Int64("seed", 1, "default random seed for specs that omit one")
		noRecover  = flag.Bool("no-recover", false, "skip resuming checkpointed jobs at startup")
		traceBufSz = flag.Int("trace-buffer", 256, "per-subscriber progress event buffer")

		tenantMaxQueued  = flag.Int("tenant-max-queued", 0, "per-tenant queued-job cap (0 = unlimited)")
		tenantMaxRunning = flag.Int("tenant-max-running", 0, "per-tenant running-job cap (0 = unlimited)")
		tenantRate       = flag.Float64("tenant-rate", 0, "per-tenant submissions/sec token-bucket rate (0 = unlimited)")
		tenantBurst      = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = derive from rate)")
	)
	// -tenant-weight is repeatable: a bare integer sets the default
	// fair-share weight every tenant inherits; NAME=W pins one tenant's
	// weight. Weight w buys w shared-pool dispatch slots per weight-1 slot
	// while both tenants are backlogged there (see jobs.Quota.Weight).
	defaultWeight := 0
	tenantWeights := map[string]int{}
	flag.Func("tenant-weight", "fair-share weight, either W (default for all tenants) or NAME=W (repeatable)", func(v string) error {
		name, val, named := strings.Cut(v, "=")
		if !named {
			w, err := strconv.Atoi(v)
			if err != nil || w < 1 {
				return fmt.Errorf("want a positive integer, got %q", v)
			}
			defaultWeight = w
			return nil
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 || name == "" {
			return fmt.Errorf("want NAME=positive-integer, got %q", v)
		}
		tenantWeights[name] = w
		return nil
	})
	flag.Parse()
	fmt.Printf("optd starting: addr=%s fleet-addr=%q seed=%d max-concurrent=%d workers=%d checkpoint-dir=%q\n",
		*addr, *fleetAddr, *seed, *maxConc, *workers, *ckptDir)

	// Structured NDJSON event log on stderr: worker lifecycle, job state
	// transitions, checkpoint writes. stdout keeps the human startup lines
	// (scripts and the e2e harness parse those).
	events := obs.NewLogger(os.Stderr)

	var fleet *dist.Coordinator
	var fleetSampler sim.FleetSampler // typed nil must stay nil in the config
	if *fleetAddr != "" {
		fleet = dist.NewCoordinator(dist.Config{Events: events})
		if err := fleet.Listen(*fleetAddr); err != nil {
			fatal(err)
		}
		defer fleet.Close()
		fleetSampler = fleet
		fmt.Printf("fleet listening on %s (optworker -connect, proto=binary)\n", fleet.Addr())
	}

	var store jobstore.Store
	if *ckptDir != "" {
		st, err := jobstore.Open(*storeKind, *ckptDir)
		if err != nil {
			fatal(err)
		}
		store = st
	}
	mgr, err := jobs.New(jobs.Config{
		MaxConcurrent:   *maxConc,
		Workers:         *workers,
		SchedPolicy:     *schedPol,
		Store:           store,
		CheckpointEvery: *ckptEvery,
		TraceBuffer:     *traceBufSz,
		Fleet:           fleetSampler,
		Events:          events,
		DefaultQuota: jobs.Quota{
			MaxQueued:  *tenantMaxQueued,
			MaxRunning: *tenantMaxRunning,
			RatePerSec: *tenantRate,
			Burst:      *tenantBurst,
			Weight:     defaultWeight,
		},
		TenantQuotas: func() map[string]jobs.Quota {
			if len(tenantWeights) == 0 {
				return nil
			}
			quotas := make(map[string]jobs.Quota, len(tenantWeights))
			for name, w := range tenantWeights {
				q := jobs.Quota{
					MaxQueued:  *tenantMaxQueued,
					MaxRunning: *tenantMaxRunning,
					RatePerSec: *tenantRate,
					Burst:      *tenantBurst,
					Weight:     w,
				}
				quotas[name] = q
			}
			return quotas
		}(),
	})
	if err != nil {
		fatal(err)
	}
	defer mgr.Close()

	if *ckptDir != "" && !*noRecover {
		ids, recErr := mgr.Recover()
		if recErr != nil {
			fmt.Fprintf(os.Stderr, "warning: recover: %v\n", recErr)
		}
		if len(ids) > 0 {
			fmt.Printf("recovered %d checkpointed job(s): %v\n", len(ids), ids)
		}
	}

	// An explicit listener so the actual address (":0" included) can be
	// reported — scripts and the e2e harness parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optd listening on %s\n", ln.Addr())
	srv := h1.NewServer(serve.New(serve.Config{Mgr: mgr, Fleet: fleet, DefaultSeed: *seed, Events: events}))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("received %s; shutting down (running jobs checkpoint and resume on restart)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
