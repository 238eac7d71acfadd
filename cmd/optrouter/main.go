// Command optrouter is the shard router for a multi-replica optd
// deployment: it spreads submitted jobs across N optd shards by a
// deterministic hash of the job ID, proxies the whole optd REST surface
// (status, results, NDJSON traces, cancellation, tenant accounting),
// health-checks the shards, and drives coordinator failover — when a shard
// dies, the next alive shard adopts its durable job store and the router
// re-targets the dead shard's hash range at the adopter. Recovered jobs
// resume bitwise-deterministically, so a client polling through the router
// cannot tell a failover happened except by latency.
//
// Each -shard flag names one replica as addr[,store-dir]; the store dir
// must be readable by the surviving replicas (shared or replicated storage)
// for failover to work. The router never names a layout: the adopter opens
// the dir in the layout it holds, whatever -store its optd ran with:
//
//	optd -addr :8081 -checkpoint-dir /srv/optd/s0 -store wal &
//	optd -addr :8082 -checkpoint-dir /srv/optd/s1 -store wal &
//	optrouter -addr :8080 \
//	    -shard localhost:8081,/srv/optd/s0 \
//	    -shard localhost:8082,/srv/optd/s1 &
//	curl -s localhost:8080/healthz   # router role + shard table
//	curl -s localhost:8080/v1/jobs -d '{"objective":"rosenbrock","dim":3,"algorithm":"pc","sigma0":100,"seed":7,"max_iterations":200}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/h1"
	"repro/internal/obs"
	"repro/internal/shard"
)

func main() {
	var shards []shard.Shard
	flag.Func("shard", "optd replica as addr[,store-dir] (repeatable)", func(v string) error {
		s, err := parseShard(v)
		if err == nil {
			shards = append(shards, s)
		}
		return err
	})
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		probe     = flag.Duration("probe", 250*time.Millisecond, "shard health-check interval")
		deadAfter = flag.Duration("dead-after", 2*time.Second, "unreachable time before a shard is declared dead and failed over")
		idPrefix  = flag.String("id-prefix", "r", "router-assigned job ID prefix (distinct per router sharing shards)")
	)
	flag.Parse()
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "optrouter: at least one -shard is required")
		os.Exit(2)
	}
	fmt.Printf("optrouter starting: addr=%s shards=%d probe=%s dead-after=%s\n", *addr, len(shards), *probe, *deadAfter)

	events := obs.NewLogger(os.Stderr)
	r, err := shard.New(shard.Config{
		Shards:    shards,
		Probe:     *probe,
		DeadAfter: *deadAfter,
		IDPrefix:  *idPrefix,
		Events:    events,
	})
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Scripts and the e2e harness parse this line, like optd's.
	fmt.Printf("optrouter listening on %s\n", ln.Addr())
	srv := h1.NewServer(r.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("received %s; shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
}

// parseShard parses one -shard value, addr[,store-dir]. A third field is
// refused, not folded into the dir: "addr,dir,wal" would otherwise name the
// fresh, empty directory "dir,wal", and failover would adopt nothing.
func parseShard(v string) (shard.Shard, error) {
	addr, dir, _ := strings.Cut(v, ",")
	if addr == "" {
		return shard.Shard{}, fmt.Errorf("empty shard address in %q (want addr[,store-dir])", v)
	}
	if strings.Contains(dir, ",") {
		return shard.Shard{}, fmt.Errorf("%q has a third field (want addr[,store-dir]; a store dir names its own layout)", v)
	}
	return shard.Shard{Addr: addr, Dir: dir}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
