package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// minJobs is the fewest completed jobs a window may have and still be a
// measurement; a run below it is invalid.
const minJobs = 120

// runOpts selects what one run of one workload does.
type runOpts struct {
	seed    int64
	seconds float64 // the end-to-end window
	// setups is how many times the run sets its system up; setup_s is their
	// median.
	setups int
	// gated holds the end-to-end window to minJobs and to the percentiles'
	// sample counts. It is off where the window is deliberately short: the
	// smoke test, and a driver run that prints only the per-layer metrics.
	gated bool
	// real runs the end-to-end window on the built binaries; false runs it on
	// the in-process assembly (the smoke test, which must not need a build).
	real bool
	// trace adds the per-layer metrics: counters of the end-to-end run read
	// from outside, the traced in-process run, and the micro-probes.
	trace         bool
	tracedSeconds float64  // each in-process window of the traced pass
	probes        probeSet // micro-probe results to reuse; nil measures them here
	// probeScale shrinks the micro-probes' loop counts (1 = full size).
	probeScale float64
	buildS     float64 // wall time of this run's go build, for build.s
}

// runResult is one run of one workload.
type runResult struct {
	metrics   map[string]value
	attempted int
	failed    int
	problems  []string  // why failed > 0 or the run is invalid
	recs      []*jobRec // the window's completed jobs, for cross-workload checks
	probes    probeSet  // the micro-probe results a traced run used
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// window is one measured interval on a started topology.
type window struct {
	seconds float64   // start to deadline
	counted []*jobRec // done and fetched before the deadline
	all     []*jobRec // every job attempted, including the drain
	elapsed float64   // start to the end of the drain
	cpu     map[string]float64
	layers  snapshot // the layers' counters over the window
	peakRSS float64
}

// measure runs the closed loop for d. CPU and counters are read at the
// deadline, while the drain of the campaigns in flight is still running, so
// they cover the same interval as the counted jobs.
func measure(top *topology, lg *loadgen, d time.Duration) (*window, error) {
	snap0, err := top.snap()
	if err != nil {
		return nil, err
	}
	cpu0, err := top.cpu()
	if err != nil {
		return nil, err
	}
	w := &window{cpu: map[string]float64{}}
	start := time.Now()
	deadline := start.Add(d)
	read := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(deadline))
		w.seconds = time.Since(start).Seconds()
		cpu1, err := top.cpu()
		if err != nil {
			read <- err
			return
		}
		for bin, s := range cpu1 {
			w.cpu[bin] = s - cpu0[bin]
		}
		w.peakRSS = top.peakRSS()
		snap1, err := top.snap()
		w.layers = snap1.sub(snap0)
		read <- err
	}()
	w.all = lg.run(deadline)
	w.elapsed = time.Since(start).Seconds()
	if err := <-read; err != nil {
		return nil, err
	}
	if err := top.check(); err != nil {
		return nil, err
	}
	for _, r := range w.all {
		if r.ok() && !r.fetched.After(deadline) {
			w.counted = append(w.counted, r)
		}
	}
	return w, nil
}

// setUp starts the workload's system (the built binaries, or with real false
// the in-process assembly, traced when tr is not nil), waits until it is ready
// and runs the warm-up campaigns. That whole interval is setup_s.
func setUp(w workload, e env, seed int64, real bool, tr *tracer) (*topology, *loadgen, float64, error) {
	start := time.Now()
	var top *topology
	var err error
	if real {
		top, err = startReal(w, e)
	} else {
		top, err = startInProc(w, e, tr)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	lg := newLoadgen(w, seed, top.targets, tr)
	if err := lg.warmup(); err != nil {
		top.close()
		return nil, nil, 0, err
	}
	if err := top.check(); err != nil {
		top.close()
		return nil, nil, 0, err
	}
	return top, lg, time.Since(start).Seconds(), nil
}

// resultCounts is what the benchmark reads out of a serialized core.Result.
type resultCounts struct {
	Evaluations int64
	Iterations  int
}

func counts(recs []*jobRec) (evals, iters float64, err error) {
	for _, r := range recs {
		var c resultCounts
		if err := json.Unmarshal(r.result, &c); err != nil {
			return 0, 0, fmt.Errorf("job %s: unreadable result: %w", r.id, err)
		}
		evals += float64(c.Evaluations)
		iters += float64(c.Iterations)
	}
	return evals, iters, nil
}

// runWorkload is one run: set-ups, the measured window, output verification,
// and with o.trace the per-layer passes.
func runWorkload(w workload, e env, file *benchmarkFile, o runOpts) (*runResult, error) {
	em := newEmitter(file)
	res := &runResult{}

	// Half of the set-ups come before the window (the last of them is the
	// one measured) and half after it, so that one short disturbance of the
	// box cannot sit under most of them.
	var top *topology
	var lg *loadgen
	var setupS []float64
	again := func() (err error) {
		var s float64
		if top, lg, s, err = setUp(w, e, o.seed, o.real, nil); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, s)
		return nil
	}
	for len(setupS) < (o.setups+1)/2 {
		if top != nil {
			top.close()
		}
		if err := again(); err != nil {
			return nil, err
		}
	}
	win, err := measure(top, lg, time.Duration(o.seconds*float64(time.Second)))
	top.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for len(setupS) < o.setups {
		if err = again(); err != nil {
			return nil, err
		}
		top.close()
	}

	// Failures: anything attempted that was refused, errored, ended in a
	// state other than done, or (below) returned a result the replay does
	// not reproduce.
	res.attempted = len(win.all)
	for _, r := range win.all {
		if !r.ok() {
			res.failed++
			res.problem("job %s (client %d seq %d) is %q: %v", r.id, r.client, r.seq, r.st.State, r.err)
		}
	}
	res.recs = win.counted
	for _, msg := range verifyReplay(win.counted, verifySample) {
		res.failed++
		res.problem("%s", msg)
	}
	jobs := float64(len(win.counted))
	if o.gated && len(win.counted) < minJobs {
		res.problem("only %d jobs completed in the %.1fs window (want >= %d)", len(win.counted), win.seconds, minJobs)
	}

	evals, _, err := counts(win.counted)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, len(win.counted))
	var queue, run []float64
	for i, r := range win.counted {
		lat[i] = r.st.Finished.Sub(r.t0).Seconds() * 1e3
		queue = append(queue, r.st.Started.Sub(r.st.Created).Seconds()*1e3)
		run = append(run, r.st.Finished.Sub(r.st.Started).Seconds()*1e3)
	}
	sort.Float64s(lat)
	pct := func(name string, p float64) {
		v, perr := percentile(lat, p)
		if perr != nil && o.gated {
			res.problem("%s: %v", name, perr)
		}
		em.emitN(name, v, len(lat))
	}
	cpu := 0.0
	for _, s := range win.cpu {
		cpu += s
	}
	em.emit("setup_s", stats.Median(setupS))
	em.emit("jobs_per_s", jobs/win.seconds)
	em.emit("evals_per_s", evals/win.seconds)
	pct("job_p50_ms", 50)
	pct("job_p90_ms", 90)
	em.emit("cpu_ms_per_job", ratio(cpu*1e3, jobs))

	if o.trace {
		em.emit("failed_frac", ratio(float64(res.failed), float64(res.attempted)))
		em.emit("build.s", o.buildS)
		if len(lat) >= 1100 {
			pct("job_p99_ms", 99)
		} else {
			em.emit("job_p99_ms", 0) // not enough samples; 0 is "not measured"
		}
		em.emitN("jobs.queue_wait_ms", mean(queue), len(queue))
		em.emitN("jobs.run_ms", mean(run), len(run))
		for _, bin := range binaries {
			em.emit("proc."+bin+".cpu_s", win.cpu[bin])
		}
		em.emit("proc.optd.peak_rss_mb", win.peakRSS)
		emitLayerCounters(em, win.layers)

		if err = runTraced(w, e, o, win, em); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		if res.probes = o.probes; res.probes == nil {
			if res.probes, err = runProbes(e, o.probeScale); err != nil {
				return nil, fmt.Errorf("micro-probes: %w", err)
			}
		}
		for name, v := range res.probes {
			em.emit(name, v)
		}
	}
	for _, err := range em.errs {
		res.problem("%v", err)
	}
	res.metrics = em.vals
	return res, nil
}

// emitLayerCounters turns the layers' own /metrics series, read from outside
// over the end-to-end window, into per-layer metrics.
func emitLayerCounters(em *emitter, s snapshot) {
	tasks := s.counter("dist_tasks_completed_total")
	em.emit("core.iterations", s.counter("core_iterations_total"))
	em.emit("sim.batches", s.counter("sim_batches_total"))
	em.emit("sim.draws", s.counter("sim_draws_total"))
	em.emit("sim.draws_per_batch", ratio(s.counter("sim_draws_total"), s.counter("sim_batches_total")))
	em.emit("sched.tasks", s.counter("sched_tasks_total"))
	em.emit("sched.batch_us", s.meanUS("sched_batch_seconds"))
	em.emit("dist.rtt_us", s.meanUS("dist_dispatch_rtt_seconds"))
	em.emit("dist.frames_per_task", ratio(s.counter("dist_frames_total"), tasks))
	em.emit("dist.bytes_per_task", ratio(s.counter("dist_bytes_total"), tasks))
	em.emit("dist.redispatches", s.counter("dist_redispatch_total"))
	em.emit("jobs.checkpoint_writes", s.counter("jobs_checkpoint_writes_total"))
}

// runTraced is the traced pass: the same workload and generator against the
// in-process assembly, once with the wrappers off and once with them on. e2e
// is the end-to-end window already measured; when that ran in-process it is
// the wrappers-off run.
func runTraced(w workload, e env, o runOpts, e2e *window, em *emitter) error {
	d := time.Duration(o.tracedSeconds * float64(time.Second))
	plain := e2e
	if o.real {
		top, lg, _, err := setUp(w, e, o.seed, false, nil)
		if err != nil {
			return err
		}
		plain, err = measure(top, lg, d)
		top.close()
		if err != nil {
			return err
		}
	}
	tr := newTracer()
	top, lg, _, err := setUp(w, e, o.seed, false, tr)
	if err != nil {
		return err
	}
	tr.reset() // the warm-up's spans are not the window's
	traced, err := measure(top, lg, d)
	top.close()
	if err != nil {
		return err
	}
	spans := tr.finish()
	if err := writeSpans(filepath.Join(e.out, "trace-"+w.name+".json"), spans); err != nil {
		return err
	}
	for _, r := range traced.all {
		if !r.ok() {
			return fmt.Errorf("job %s is %q: %v", r.id, r.st.State, r.err)
		}
	}
	rate := func(win *window) float64 { return float64(len(win.all)) / win.elapsed }
	em.emit("trace.overhead_pct", 100*ratio(rate(plain)-rate(traced), rate(plain)))
	return emitSpanMetrics(em, w, e, tr, spans, traced)
}

// emitSpanMetrics derives the per-layer metrics of the traced run. Every job
// of the run is included and the interval is the whole run, drain included,
// so every span lies inside it.
func emitSpanMetrics(em *emitter, w workload, e env, tr *tracer, spans []span, win *window) error {
	byName := map[string][]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	durs := func(name string) []float64 {
		out := make([]float64, len(byName[name]))
		for i, s := range byName[name] {
			out[i] = us(s.dur())
		}
		return out
	}
	// self is the mean of each span's duration minus its children of one name.
	self := func(parents []span, child string) float64 {
		var out []float64
		for _, p := range parents {
			d := p.dur()
			for _, c := range children[p.ID] {
				if c.Name == child {
					d -= c.dur()
				}
			}
			out = append(out, us(d))
		}
		return mean(out)
	}
	sum := func(v []float64) (s float64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	meanN := func(name string) float64 {
		var n []float64
		for _, s := range byName[name] {
			n = append(n, float64(s.N))
		}
		return mean(n)
	}

	var shardSpans []span
	proxySelf := 0.0
	for _, kind := range []string{"submit", "trace", "status", "result"} {
		ss := byName["shard."+kind]
		proxySelf += self(ss, "serve."+kind) * float64(len(ss))
		shardSpans = append(shardSpans, ss...)
	}
	em.emitN("shard.proxy_self_us", ratio(proxySelf, float64(len(shardSpans))), len(shardSpans))
	em.emit("shard.requests", float64(len(shardSpans)))

	em.emitN("serve.submit_self_us", self(byName["serve.submit"], "jobstore.put"), len(byName["serve.submit"]))
	em.emitN("serve.status_us", mean(durs("serve.status")), len(byName["serve.status"]))
	em.emitN("serve.result_us", mean(durs("serve.result")), len(byName["serve.result"]))
	events := 0.0
	if len(byName["serve.trace"]) > 0 {
		for _, r := range win.all {
			events += float64(r.events)
		}
	}
	em.emit("serve.trace_events", events)
	em.emit("serve.trace_us_per_event", ratio(float64(tr.traceWriteNS.Load())/1e3, events))

	submitUS := 0.0
	if len(byName["serve.submit"]) == 0 { // no HTTP layer: client.submit is Manager.Submit itself
		submitUS = mean(durs("client.submit"))
	}
	em.emit("jobs.submit_us", submitUS)

	puts := durs("jobstore.put")
	sort.Float64s(puts)
	p90, _ := percentile(puts, 90) // 0 when the workload makes too few Puts to have one
	em.emitN("jobstore.put_us", mean(puts), len(puts))
	em.emit("jobstore.put_p90_us", p90)
	em.emit("jobstore.puts", float64(len(puts)))
	em.emit("jobstore.put_bytes", meanN("jobstore.put"))
	em.emitN("jobstore.delete_us", mean(durs("jobstore.delete")), len(byName["jobstore.delete"]))
	em.emit("jobstore.busy_frac", busySeconds(append(byName["jobstore.put"], byName["jobstore.delete"]...))/win.elapsed)

	fleet := durs("dist.sample_fleet")
	calls := float64(tr.computeCalls.Load())
	computeUS := ratio(float64(tr.computeNS.Load())/1e3, calls)
	em.emitN("dist.sample_fleet_us", mean(fleet), len(fleet))
	em.emit("dist.tasks_per_batch", meanN("dist.sample_fleet"))
	overhead := 0.0
	if len(fleet) > 0 {
		overhead = win.layers.meanUS("dist_dispatch_rtt_seconds") - computeUS
	}
	em.emit("dist.overhead_us_per_task", overhead)

	lanes := float64(w.lanes(e.nproc))
	busy := ratio(float64(tr.computeNS.Load())/1e9, win.elapsed*lanes)
	workerBusy, schedBusy := 0.0, 0.0
	if len(fleet) > 0 {
		workerBusy = busy
	} else {
		schedBusy = busy
	}
	em.emitN("optworker.compute_us", computeUS, int(calls))
	em.emit("optworker.busy_frac", workerBusy)
	em.emit("sched.busy_frac", schedBusy)
	em.emit("paper.parallel_eff", busy)
	perEval := 0.0
	if calls > 0 {
		perEval = lanes*win.elapsed*1e6/calls - computeUS
	}
	em.emit("paper.overhead_us_per_eval", perEval)

	// core's self time is what is left of the run spans after the sampling
	// batches (timed by dist's wrapper or sched's own histogram) and the
	// snapshot Puts made from inside the run.
	_, iters, err := counts(win.all)
	if err != nil {
		return err
	}
	sampling := sum(fleet)
	if len(fleet) == 0 {
		sampling = win.layers.Histograms["sched_batch_seconds"].Sum * 1e6
	}
	runSelf := self(byName["jobs.run"], "jobstore.put") * float64(len(byName["jobs.run"]))
	em.emit("core.self_us_per_iter", ratio(runSelf-sampling, iters))

	// Do the pieces measured from different places tile the end-to-end
	// latency? Latency runs from the client's submit to the server's finished
	// stamp. The pieces are the submit, up to the return of the serve handler
	// that enqueued the job (the response's way back overlaps the run) or of
	// Manager.Submit where there is no HTTP layer, and the server's queue and
	// run stamps. What is left over is a gap (positive) or an overlap.
	var lat []float64
	for _, r := range win.all {
		lat = append(lat, r.st.Finished.Sub(r.t0).Seconds()*1e3)
	}
	enqueued := make(map[string]int64, len(byName["serve.submit"]))
	for _, s := range byName["serve.submit"] {
		enqueued[s.Job] = s.End
	}
	var submit []float64
	for _, s := range byName["client.submit"] {
		end, ok := enqueued[s.Job]
		if !ok {
			end = s.End
		}
		submit = append(submit, us(time.Duration(end-s.Start)))
	}
	pieces := (mean(submit) + mean(durs("jobs.queue")) + mean(durs("jobs.run"))) / 1e3
	em.emitN("trace.unaccounted_ms", mean(lat)-pieces, len(lat))
	return nil
}

// busySeconds is the length of the union of the spans' intervals: the time at
// least one of them was in flight.
func busySeconds(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	busy, end := int64(0), int64(-1<<63)
	for _, s := range spans {
		if s.Start > end {
			busy += s.End - s.Start
			end = s.End
		} else if s.End > end {
			busy += s.End - end
			end = s.End
		}
	}
	return float64(busy) / 1e9
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *runResult) line(defs []metricDef) (string, error) {
	vals := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %q was not emitted", d.Name)
		}
		v.N = 0 // the contract's metric objects have exactly value and unit
		vals[d.Name] = v
	}
	b, err := json.Marshal(resultLine{Correct: len(r.problems) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: vals})
	return string(b), err
}

func (r *runResult) report() string { return strings.Join(r.problems, "\n") }
