// Command optworker is a remote sampling agent: it dials an optd
// coordinator (-connect), registers its capacity, and executes dispatched
// sampling tasks until interrupted. Agents hold no run state — every task's
// result is a pure function of the task — so workers can be added, killed
// and restarted at any point of any run without changing a single bit of the
// results; the coordinator re-dispatches whatever a dead worker still owed.
//
// Example fleet (see the README's "Distributed mode" quickstart):
//
//	optd -addr :8080 -fleet-addr :9090 &
//	optworker -connect localhost:9090 -name a -capacity 4 &
//	optworker -connect localhost:9090 -name b -capacity 4 &
//	curl -s localhost:8080/v1/jobs -d '{"objective":"rosenbrock","dim":3,"sigma0":100,"seed":7,"fleet":true,"max_iterations":200}'
//
// The -latency and -spin flags add a simulated per-task cost, standing in
// for the expensive simulation (an MD trajectory segment in the paper's
// TIP4P study) a real deployment would run here.
//
// With -debug-addr the agent opens a debug listener serving GET /metrics
// (Prometheus text exposition of the agent's obs registry: frames and bytes
// per codec, sessions, tasks executed) and the net/http/pprof profiles.
// Structured NDJSON events (session_start, session_end, worker_fatal) go to
// stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// Exit codes: startup misconfiguration fails fast with a distinct code and a
// structured worker_fatal event, so a supervisor can tell "fix the flags"
// from "the session died".
const (
	exitSession   = 1 // a session error with -once, or a debug-listener failure
	exitBadTarget = 3 // -connect address does not resolve
)

func main() {
	var (
		connect   = flag.String("connect", "localhost:9090", "coordinator fleet address, or a comma-separated failover list (tried in rotation)")
		name      = flag.String("name", hostname(), "worker label in fleet status")
		capacity  = flag.Int("capacity", runtime.GOMAXPROCS(0), "concurrent task capacity")
		latency   = flag.Duration("latency", 0, "simulated wait per task (models an external simulation)")
		spin      = flag.Int("spin", 0, "simulated CPU burn per task (floating-point ops)")
		once      = flag.Bool("once", false, "exit on disconnect instead of reconnecting")
		debugAddr = flag.String("debug-addr", "", "debug listener address serving /metrics and /debug/pprof (empty = none)")
	)
	flag.Parse()

	// Structured NDJSON event log on stderr; stdout keeps the human startup
	// lines.
	events := obs.NewLogger(os.Stderr)

	// Resolve every coordinator address up front: a typo'd -connect must
	// fail loudly at startup, not spin silently in the reconnect loop
	// forever.
	addrs := strings.Split(*connect, ",")
	for _, a := range addrs {
		if _, err := net.ResolveTCPAddr("tcp", a); err != nil {
			events.Event("worker_fatal", "err", err, "flag", "-connect")
			fmt.Fprintf(os.Stderr, "optworker: cannot resolve -connect %q: %v\n", a, err)
			os.Exit(exitBadTarget)
		}
	}
	fmt.Printf("optworker starting: connect=%s name=%s capacity=%d latency=%s spin=%d\n",
		*connect, *name, *capacity, *latency, *spin)

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			events.Event("worker_fatal", "err", err, "flag", "-debug-addr")
			fmt.Fprintf(os.Stderr, "optworker: debug listener: %v\n", err)
			os.Exit(exitSession)
		}
		fmt.Printf("optworker debug listening on %s (/metrics, /debug/pprof)\n", ln.Addr())
		go http.Serve(ln, obs.Default().DebugMux())
	}

	w := dist.NewWorker(dist.WorkerConfig{
		Addrs:      addrs,
		Name:       *name,
		Capacity:   *capacity,
		SampleCost: cost(*latency, *spin),
		Events:     events,
	})

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Printf("received %s; shutting down\n", sig)
		cancel()
	}()

	var err error
	if *once {
		err = w.Run(ctx)
	} else {
		err = w.RunLoop(ctx)
	}
	if err != nil {
		events.Event("worker_fatal", "err", err)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitSession)
	}
}

// cost builds the simulated per-task expense from the -latency/-spin flags.
func cost(latency time.Duration, spin int) func([]float64, float64) {
	if latency <= 0 && spin <= 0 {
		return nil
	}
	return func([]float64, float64) {
		if latency > 0 {
			time.Sleep(latency)
		}
		x := 1.0
		for i := 0; i < spin; i++ {
			x = math.Sqrt(x + float64(i&7))
		}
		if x < 0 {
			panic("unreachable")
		}
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "worker"
	}
	return h
}
