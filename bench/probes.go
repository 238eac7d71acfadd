package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobstore"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testfunc"
)

// probeSet is the micro-probes' results by per-layer metric name.
type probeSet map[string]float64

// strategies are the registered strategies the per-strategy probes cover
// ("pc-mn" is the registered alias of "pc+mn" that is also a legal metric name).
var strategies = []string{"det", "mn", "pc", "pc-mn", "anderson", "pso", "hybrid"}

// sink keeps the compiler from deleting a probed call whose result is unused.
var sink int

// perOp runs pass(n) five times and returns the median nanoseconds per
// operation.
func perOp(n int, pass func(n int)) float64 {
	ns := make([]float64, 5)
	for i := range ns {
		start := time.Now()
		pass(n)
		ns[i] = float64(time.Since(start)) / float64(n)
	}
	return stats.Median(ns)
}

// runProbes times tight loops over each layer's public functions from
// outside. scale shrinks the loop counts (the smoke test); 1 is full size.
func runProbes(e env, scale float64) (probeSet, error) {
	n := func(full int) int { return max(16, int(float64(full)*scale)) }
	ctx := context.Background()
	noop := func(int) {}
	p := probeSet{}
	// The probed calls fail only when the environment does (a full disk under
	// the store probes); the first such error ends the probes.
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// calib: the plain single-threaded baseline, one objective evaluation's
	// spin with nothing around it.
	cost := spin(localSpin)
	p["calib.spin_ns_per_eval"] = perOp(n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			cost(nil, 1)
		}
	})

	// sched: dispatch cost of a 16-task batch of no-op tasks.
	pool := sched.New(sched.Config{Workers: e.nproc})
	p["sched.dispatch_ns_per_task"] = perOp(n(200_000), func(n int) {
		for i := 0; i < n; i += 16 {
			check(pool.DoN(ctx, 16, noop))
		}
	})
	p["sched.batch_ns_per_task"] = perOp(n(200_000), func(n int) {
		for i := 0; i < n; i += 16 {
			b := pool.NewBatch()
			for k := 0; k < 16; k++ {
				b.Submit(k, func() {})
			}
			check(b.Wait(ctx))
		}
	})
	pool.Close()
	for name, policy := range map[string]sched.Policy{"sched.fair_ns_per_task": sched.FairShare, "sched.fifo_ns_per_task": sched.FIFO} {
		pool := sched.New(sched.Config{Workers: e.nproc, Policy: policy})
		p[name] = perOp(n(200_000), func(n int) {
			var wg sync.WaitGroup
			for t := 0; t < 4; t++ { // 4 tenants contending
				wg.Add(1)
				go func() {
					defer wg.Done()
					tenant := fmt.Sprintf("t%d", t)
					for i := 0; i < n/4; i += 16 {
						if err := pool.DoNAs(ctx, tenant, 16, noop); err != nil {
							panic(err) // a closed pool: a bug in this probe
						}
					}
				}()
			}
			wg.Wait()
		})
		pool.Close()
	}

	// dist: encode+decode of one 16-task dispatch frame per codec.
	msg := &dist.Message{Type: dist.TypeDispatch, Dispatch: &dist.Dispatch{}}
	for i := 0; i < 16; i++ {
		msg.Dispatch.Tasks = append(msg.Dispatch.Tasks, dist.Task{
			ID: uint64(i + 1), Objective: "rosenbrock", X: []float64{1.5, -0.25, 3}, Seed: int64(i) * 7919, Skip: i, Dt: 1,
		})
	}
	for name, proto := range map[string]dist.Proto{"dist.binproto_ns_per_frame": dist.ProtoBinary, "dist.json_ns_per_frame": dist.ProtoJSON} {
		var wire bytes.Buffer
		fw, fr := dist.NewFrameWriter(&wire, proto), dist.NewFrameReader(&wire, proto)
		var got dist.Message
		p[name] = perOp(n(20_000), func(n int) {
			for i := 0; i < n; i++ {
				check(fw.Write(msg))
				check(fr.Read(&got))
			}
		})
	}

	// jobstore: durable Put of a 2 KiB payload at 1 and 4 writers, and the
	// replay of a 1000-record log.
	payload := bytes.Repeat([]byte("x"), 2048)
	for _, kind := range []string{"wal", "file"} {
		for _, writers := range []int{1, 4} {
			check(withStore(e, kind, func(st jobstore.Store, _ string) error {
				var err error
				p[fmt.Sprintf("jobstore.%s_put_ns.w%d", kind, writers)] = perOp(n(400), func(n int) {
					err = errors.Join(err, putAll(st, writers, n, payload, false))
				})
				return err
			}))
		}
	}
	check(withStore(e, "wal", func(st jobstore.Store, dir string) error {
		if err := putAll(st, 4, n(1000), payload, true); err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		ms := make([]float64, 5)
		for i := range ms {
			start := time.Now()
			re, err := jobstore.OpenWAL(dir)
			if err != nil {
				return err
			}
			ms[i] = time.Since(start).Seconds() * 1e3
			re.Close()
		}
		p["jobstore.wal_replay_ms"] = stats.Median(ms)
		return nil
	}))

	// sim and noise: one batch of 16 points on a zero-cost space; one draw.
	space := sim.NewLocalSpace(sim.LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: sim.ConstSigma(50), Seed: 1, Parallel: true})
	pts := make([]sim.Point, 16)
	for i := range pts {
		pts[i] = space.NewPoint([]float64{float64(i), 1, 2})
	}
	p["sim.batch_ns_per_draw"] = perOp(n(2_000_000), func(n int) {
		for i := 0; i < n; i += 16 {
			check(space.SampleBatch(ctx, pts, 1))
		}
	})
	stream := noise.NewStream(1, 50, 7)
	p["noise.draw_ns"] = perOp(n(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			stream.Sample(1)
		}
	})

	// obs: one counter increment, one histogram observation.
	reg := obs.NewRegistry()
	counter, hist := reg.Counter("probe_total"), reg.Histogram("probe_seconds", nil)
	p["obs.counter_ns"] = perOp(n(5_000_000), func(n int) {
		for i := 0; i < n; i++ {
			counter.Inc()
		}
	})
	p["obs.histogram_ns"] = perOp(n(5_000_000), func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i&1023) * 1e-6)
		}
	})

	// shard: placement of one job ID.
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%06d", i)
	}
	p["shard.pick_ns"] = perOp(n(5_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink += shard.Pick(ids[i&1023], 2)
		}
	})

	for _, s := range strategies {
		var err error
		if p["core.decision_us."+s], err = decisionUS(s, scale); err != nil {
			return nil, err
		}
		if p["core.evals_to_target."+s], err = evalsToTarget(s); err != nil {
			return nil, err
		}
	}
	return p, failed
}

// withStore opens a fresh store of kind under the run's tmp dir, hands it to
// fn and removes it afterwards.
func withStore(e env, kind string, fn func(st jobstore.Store, dir string) error) error {
	dir, rm, err := e.storeDir("probe-" + kind)
	if err != nil {
		return err
	}
	defer rm()
	st, err := jobstore.Open(kind, dir)
	if err != nil {
		return err
	}
	defer st.Close() // fn may have closed it already; closing twice is harmless
	return fn(st, dir)
}

// putAll makes n Puts from the given number of concurrent writers. With
// distinct false each writer overwrites its own key (the checkpoint pattern);
// with distinct true every Put is a new record.
func putAll(st jobstore.Store, writers, n int, payload []byte, distinct bool) error {
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/writers && errs[w] == nil; i++ {
				id := fmt.Sprintf("w%d", w)
				if distinct {
					id = fmt.Sprintf("w%d-%d", w, i)
				}
				errs[w] = st.Put(id, payload)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// strategyRun runs one registered strategy on noisy Rosenbrock, dim 3,
// sigma0 = 50, with no cost per evaluation, the way jobs.Spec.runSpec
// configures it.
func strategyRun(ctx context.Context, name string, seed int64, maxIter int, trace func(core.TraceEvent, *sim.LocalSpace)) (*core.Result, error) {
	strat, err := core.LookupStrategy(name)
	if err != nil {
		return nil, err
	}
	alg := core.PC
	if as, ok := strat.(core.AlgorithmStrategy); ok {
		alg = as.Algorithm()
	}
	cfg := core.DefaultConfig(alg)
	cfg.Tol = 0
	cfg.MaxIterations = maxIter
	cfg.MaxWalltime = 1e5
	space := sim.NewLocalSpace(sim.LocalConfig{Dim: 3, F: testfunc.Rosenbrock, Sigma0: sim.ConstSigma(50), Seed: seed, Parallel: true})
	if trace != nil {
		cfg.Trace = func(e core.TraceEvent) { trace(e, space) }
	}
	return core.Run(ctx, space, core.RunSpec{Strategy: name, Config: cfg, Seed: seed, Lo: -5, Hi: 5, HasBox: true, SwarmIters: maxIter})
}

// decisionUS is the strategy's wall time per iteration on a zero-cost space:
// what the decision path costs when sampling costs nothing.
func decisionUS(name string, scale float64) (float64, error) {
	iters := max(20, int(300*scale))
	us := make([]float64, 5)
	for i := range us {
		start := time.Now()
		res, err := strategyRun(context.Background(), name, int64(i+1), iters, nil)
		if err != nil {
			return 0, fmt.Errorf("strategy %s: %w", name, err)
		}
		us[i] = float64(time.Since(start)) / 1e3 / float64(max(res.Iterations, 1))
	}
	return stats.Median(us), nil
}

// evalsToTarget is the median over five fixed seeds of the evaluations spent
// until the noise-free value at the best vertex is <= 1e-2, capped at the
// run's budget. It is a count: it repeats exactly on any machine.
func evalsToTarget(name string) (float64, error) {
	evals := make([]float64, 5)
	for i := range evals {
		ctx, cancel := context.WithCancel(context.Background())
		hit := int64(-1)
		res, err := strategyRun(ctx, name, int64(101+i), 1000, func(e core.TraceEvent, space *sim.LocalSpace) {
			if hit < 0 && e.BestUnderlying <= 1e-2 {
				hit = space.Evaluations()
				cancel()
			}
		})
		cancel()
		if err != nil {
			return 0, fmt.Errorf("strategy %s: %w", name, err)
		}
		if hit < 0 {
			hit = res.Evaluations
		}
		evals[i] = float64(hit)
	}
	return stats.Median(evals), nil
}
