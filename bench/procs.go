package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the three real programs the end-to-end workloads run.
var binaries = []string{"optd", "optrouter", "optworker"}

// buildBinaries compiles the programs under test from the checkout's source
// into out/bin and returns the wall time it took.
func buildBinaries(root, out string) (time.Duration, error) {
	start := time.Now()
	args := []string{"build", "-o", filepath.Join(out, "bin") + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, msg)
	}
	return time.Since(start), nil
}

// child is one process under test, in its own process group.
type child struct {
	name  string // log label, e.g. "optd0"
	bin   string // binary name, the key of the proc.<bin>.* metrics
	cmd   *exec.Cmd
	start time.Time
	lines chan string   // stdout lines, for the "listening on" announcements
	seen  []string      // lines already taken off the channel; used only by announced
	done  chan struct{} // closed when the process has been waited for
	err   error         // Wait's result; read after done
}

// procs owns every child of the run, so that one call stops them all when a
// signal arrives. Children are also killed by the kernel if this process dies
// without stopping them (Pdeathsig), so a panic or SIGKILL of the benchmark
// leaves nothing behind.
type procs struct {
	out string // directory for child logs

	mu    sync.Mutex
	live  map[*child]bool // guarded by mu: started and not yet asked to stop
	early error           // guarded by mu: first child that exited while live
}

// newProcs starts a run's process table and removes the child logs of the
// run before it.
func newProcs(out string) *procs {
	old, _ := filepath.Glob(filepath.Join(out, "*.log")) // the pattern is well formed
	for _, f := range old {
		os.Remove(f)
	}
	return &procs{out: out, live: map[*child]bool{}}
}

// start launches out/bin/<bin> with args. Its stderr goes to
// out/<name>.stderr.log for post-mortems; stdout is kept beside it and also
// scanned for the address announcements. A run starts a process of one name
// once per set-up; they append to the same logs.
func (p *procs) start(name, bin string, args ...string) (*child, error) {
	appendTo := func(path string) (*os.File, error) {
		return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	}
	stderr, err := appendTo(filepath.Join(p.out, name+".stderr.log"))
	if err != nil {
		return nil, err
	}
	stdout, err := appendTo(filepath.Join(p.out, name+".stdout.log"))
	if err != nil {
		stderr.Close()
		return nil, err
	}
	cmd := exec.Command(filepath.Join(p.out, "bin", bin), args...)
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		stderr.Close()
		stdout.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// Buffer sized to the handful of startup lines a child prints; later
	// lines are dropped from the channel (they are still in the log).
	c := &child{name: name, bin: bin, cmd: cmd, start: time.Now(), lines: make(chan string, 16), done: make(chan struct{})}
	p.mu.Lock()
	p.live[c] = true
	p.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(io.TeeReader(pipe, stdout))
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default:
			}
		}
		c.err = cmd.Wait()
		stderr.Close()
		stdout.Close()
		p.mu.Lock()
		if p.live[c] && p.early == nil {
			p.early = fmt.Errorf("%s exited early: %v (see %s)", name, c.err, stderr.Name())
		}
		p.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// announced waits for a stdout line starting with prefix and returns the word
// after it: how a child started on port 0 reports the port the kernel gave it.
func (c *child) announced(prefix string) (string, error) {
	for _, line := range c.seen {
		if rest, ok := strings.CutPrefix(line, prefix); ok && rest != "" {
			return strings.Fields(rest)[0], nil
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line := <-c.lines:
			c.seen = append(c.seen, line)
			if rest, ok := strings.CutPrefix(line, prefix); ok && rest != "" {
				return strings.Fields(rest)[0], nil
			}
		case <-c.done:
			return "", fmt.Errorf("%s exited before announcing %q: %v", c.name, prefix, c.err)
		case <-deadline:
			return "", fmt.Errorf("%s did not announce %q within 10s", c.name, prefix)
		}
	}
}

// earlyExit reports the first child that died while the run still needed it.
func (p *procs) earlyExit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.early
}

// stop ends the given children's process groups and waits until each has
// ended: SIGTERM first so stores close cleanly, SIGKILL for whatever is left.
func (p *procs) stop(children []*child) {
	p.mu.Lock()
	for _, c := range children {
		delete(p.live, c)
	}
	p.mu.Unlock()
	for _, c := range children {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGTERM) // an already-exited group gives ESRCH
	}
	for _, c := range children {
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
			<-c.done
		}
	}
}

// stopAll stops every live child.
func (p *procs) stopAll() {
	p.mu.Lock()
	var all []*child
	for c := range p.live {
		all = append(all, c)
	}
	p.mu.Unlock()
	p.stop(all)
}

// cpuSeconds sums user+sys CPU of the children per binary, from
// /proc/<pid>/stat.
func cpuSeconds(children []*child) (map[string]float64, error) {
	cpu := map[string]float64{}
	for _, c := range children {
		s, err := procCPU(c.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		cpu[c.bin] += s
	}
	return cpu, nil
}

// peakRSSMB is the largest VmHWM among the children built from bin.
func peakRSSMB(children []*child, bin string) float64 {
	peak := 0.0
	for _, c := range children {
		if c.bin == bin {
			peak = max(peak, procPeakRSSMB(c.cmd.Process.Pid))
		}
	}
	return peak
}

// clockTick is USER_HZ, the unit of the /proc/<pid>/stat CPU fields; Linux
// fixes it at 100 for every architecture Go supports.
const clockTick = 100

func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU is this process's user+sys CPU, for the in-process assemblies.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// health is the part of optd's /healthz the benchmark reads.
type health struct {
	OK     bool    `json:"ok"`
	Uptime float64 `json:"uptime_seconds"`
	Fleet  struct {
		Workers []json.RawMessage `json:"workers"`
	} `json:"fleet"`
	Metrics snapshot `json:"metrics"`
}

func getHealth(addr string) (health, error) {
	var h health
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("%s/healthz: HTTP %d", addr, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// waitReady polls addr's /healthz until it is ok and reports at least
// fleetWorkers registered agents. An uptime older than the child is a stale
// listener from another run holding the port: fail loudly.
func (p *procs) waitReady(c *child, addr string, fleetWorkers int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := getHealth(addr)
		if err == nil && h.OK && len(h.Fleet.Workers) >= fleetWorkers {
			if age := time.Since(c.start).Seconds(); h.Uptime > age+1 {
				return fmt.Errorf("%s at %s reports uptime %.1fs but was started %.1fs ago: stale listener", c.name, addr, h.Uptime, age)
			}
			return nil
		}
		if exit := p.earlyExit(); exit != nil {
			return exit
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s at %s not ready within 10s: %v", c.name, addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
