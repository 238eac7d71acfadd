package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
)

// maxConcurrent is every manager's run-pool width (optd -max-concurrent).
const maxConcurrent = 4

// env is where a run happens.
type env struct {
	root  string // module root: where the binaries are built from
	out   string // bench/out: binaries, child logs, traces, store dirs
	nproc int
	procs *procs // every child process of the run
}

// topology is a started system under test.
type topology struct {
	targets []target // one per client
	// snap reads the layers' own counters from outside: /healthz of every
	// optd, or this process's registry for an in-process assembly.
	snap func() (snapshot, error)
	// cpu is CPU seconds so far per binary of the system under test
	// ("self" for an in-process assembly).
	cpu func() (map[string]float64, error)
	// peakRSS is optd's peak resident set in MiB (0 in-process).
	peakRSS func() float64
	// check reports a child that exited while the run needed it.
	check func() error
	close func()
}

// closers runs a topology's teardown steps in reverse order of set-up.
type closers []func()

func (c closers) close() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

func (e env) storeDir(label string) (string, func(), error) {
	base := filepath.Join(e.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, label+"-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// startReal starts the workload's deployment from the built binaries (or, for
// local_compute, the in-process manager that workload is defined as) and
// returns once every process is ready. Ports are the kernel's choice: each
// child listens on port 0 and announces the address it got.
func startReal(w workload, e env) (*topology, error) {
	if w.name == "local_compute" {
		return startInProc(w, e, nil)
	}
	var children []*child
	var cl closers = []func(){func() { e.procs.stop(children) }}
	fail := func(err error) (*topology, error) {
		cl.close()
		return nil, err
	}
	start := func(name, bin string, args ...string) (*child, error) {
		c, err := e.procs.start(w.name+"-"+name, bin, args...)
		if err == nil {
			children = append(children, c)
		}
		return c, err
	}
	// optd starts one optd and returns it with its HTTP address, once it
	// answers /healthz with at least the given number of fleet workers.
	optd := func(name string, fleetWorkers int, args ...string) (*child, string, error) {
		c, err := start(name, "optd", append([]string{"-addr", "127.0.0.1:0", "-max-concurrent", strconv.Itoa(maxConcurrent)}, args...)...)
		if err != nil {
			return nil, "", err
		}
		addr, err := c.announced("optd listening on ")
		if err != nil {
			return nil, "", err
		}
		return c, addr, e.procs.waitReady(c, addr, fleetWorkers)
	}
	var optds []string // HTTP addresses of the optd processes
	front := ""        // the address the clients talk to
	switch w.name {
	case "fleet_compute":
		c, addr, err := optd("optd", 0, "-fleet-addr", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		fleetAddr, err := c.announced("fleet listening on ")
		if err != nil {
			return fail(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := start(fmt.Sprintf("optworker%d", i), "optworker", "-connect", fleetAddr, "-name", fmt.Sprintf("w%d", i),
				"-capacity", strconv.Itoa(workerCapacity(e.nproc)), "-spin", strconv.Itoa(fleetSpin)); err != nil {
				return fail(err)
			}
		}
		if err := e.procs.waitReady(c, addr, 2); err != nil {
			return fail(err)
		}
		optds, front = []string{addr}, addr
	case "serve_small":
		routerArgs := []string{"-addr", "127.0.0.1:0"}
		for i := 0; i < 2; i++ {
			_, addr, err := optd(fmt.Sprintf("optd%d", i), 0)
			if err != nil {
				return fail(err)
			}
			optds = append(optds, addr)
			routerArgs = append(routerArgs, "-shard", addr)
		}
		r, err := start("optrouter", "optrouter", routerArgs...)
		if err != nil {
			return fail(err)
		}
		if front, err = r.announced("optrouter listening on "); err != nil {
			return fail(err)
		}
		if err := e.procs.waitReady(r, front, 0); err != nil {
			return fail(err)
		}
	case "ckpt_stream":
		dir, rm, err := e.storeDir(w.name)
		if err != nil {
			return fail(err)
		}
		cl = append(cl, rm)
		_, addr, err := optd("optd", 0, "-store", "wal", "-checkpoint-dir", dir, "-checkpoint-every", strconv.Itoa(ckptEvery))
		if err != nil {
			return fail(err)
		}
		optds, front = []string{addr}, addr
	default:
		return fail(fmt.Errorf("no real deployment for workload %q", w.name))
	}
	t := &topology{
		cpu:     func() (map[string]float64, error) { return cpuSeconds(children) },
		peakRSS: func() float64 { return peakRSSMB(children, "optd") },
		check:   e.procs.earlyExit,
		close:   cl.close,
		snap: func() (snapshot, error) {
			var sum snapshot
			for _, addr := range optds {
				h, err := getHealth(addr)
				if err != nil {
					return sum, err
				}
				sum = sum.add(h.Metrics)
			}
			return sum, nil
		},
	}
	for c := 0; c < w.clients; c++ {
		t.targets = append(t.targets, newHTTPTarget(front, w.tenantScoped))
	}
	return t, nil
}

// startInProc assembles the identical topology inside this process from the
// layers' public constructors: shard.Router.Handler() over httptest servers
// wrapping serve.New, jobs.Manager with its Store, and a dist.Coordinator with
// dist.NewWorker agents over loopback. With a tracer every layer boundary is
// wrapped; with nil nothing is, which prices the spans and not the topology.
func startInProc(w workload, e env, tr *tracer) (*topology, error) {
	var cl closers
	fail := func(err error) (*topology, error) {
		cl.close()
		return nil, err
	}
	t := &topology{
		cpu:     func() (map[string]float64, error) { return map[string]float64{"self": selfCPU()}, nil },
		peakRSS: func() float64 { return 0 },
		check:   func() error { return nil },
		snap:    func() (snapshot, error) { return fromRegistry(obs.Default().Snapshot()), nil },
	}
	// shardServer starts one manager behind a serve handler on a loopback
	// port and returns its address.
	shardServer := func(cfg jobs.Config, fleet *dist.Coordinator) (string, error) {
		cfg.MaxConcurrent = maxConcurrent
		mgr, err := jobs.New(cfg)
		if err != nil {
			return "", err
		}
		cl = append(cl, mgr.Close)
		srv := httptest.NewServer(tr.middleware("serve", serve.New(serve.Config{Mgr: mgr, Fleet: fleet, DefaultSeed: 1})))
		cl = append(cl, srv.Close)
		return strings.TrimPrefix(srv.URL, "http://"), nil
	}
	front := ""
	switch w.name {
	case "local_compute":
		mgr, err := jobs.New(jobs.Config{Workers: e.nproc, MaxConcurrent: maxConcurrent, SampleCost: tr.tracedCost(spin(localSpin))})
		if err != nil {
			return fail(err)
		}
		t.close = mgr.Close
		for c := 0; c < w.clients; c++ {
			t.targets = append(t.targets, mgrTarget{mgr})
		}
		return t, nil
	case "fleet_compute":
		coord := dist.NewCoordinator(dist.Config{})
		if err := coord.Listen("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		cl = append(cl, coord.Close)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		cl = append(cl, func() { cancel(); wg.Wait() })
		for i := 0; i < 2; i++ {
			agent := dist.NewWorker(dist.WorkerConfig{
				Addr: coord.Addr().String(), Name: fmt.Sprintf("w%d", i),
				Capacity: workerCapacity(e.nproc), SampleCost: tr.tracedCost(spin(fleetSpin)),
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = agent.RunLoop(ctx) // ends with ctx; a session error shows as failed jobs
			}()
		}
		wait, stop := context.WithTimeout(ctx, 10*time.Second)
		err := coord.WaitWorkers(wait, 2)
		stop()
		if err != nil {
			return fail(fmt.Errorf("in-process fleet: %w", err))
		}
		var fleet sim.FleetSampler = coord
		if tr != nil {
			fleet = tracedFleet{coord, tr}
		}
		if front, err = shardServer(jobs.Config{Fleet: fleet}, coord); err != nil {
			return fail(err)
		}
	case "serve_small":
		var shards []shard.Shard
		for i := 0; i < 2; i++ {
			addr, err := shardServer(jobs.Config{}, nil)
			if err != nil {
				return fail(err)
			}
			shards = append(shards, shard.Shard{Addr: addr})
		}
		cfg := shard.Config{Shards: shards}
		if tr != nil {
			cfg.Client = &http.Client{Transport: spanTransport{http.DefaultTransport}}
		}
		router, err := shard.New(cfg)
		if err != nil {
			return fail(err)
		}
		cl = append(cl, router.Close)
		srv := httptest.NewServer(tr.middleware("shard", router.Handler()))
		cl = append(cl, srv.Close)
		front = strings.TrimPrefix(srv.URL, "http://")
	case "ckpt_stream":
		dir, rm, err := e.storeDir(w.name)
		if err != nil {
			return fail(err)
		}
		cl = append(cl, rm)
		st, err := jobstore.OpenWAL(dir)
		if err != nil {
			return fail(err)
		}
		cfg := jobs.Config{CheckpointEvery: ckptEvery, Store: st}
		if tr != nil {
			cfg.Store = tracedStore{st, tr}
		}
		if front, err = shardServer(cfg, nil); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown workload %q", w.name))
	}
	t.close = cl.close
	for c := 0; c < w.clients; c++ {
		t.targets = append(t.targets, newHTTPTarget(front, w.tenantScoped))
	}
	return t, nil
}
