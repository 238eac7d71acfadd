package mw

import (
	"errors"
	"fmt"
)

// Machinefile models the $PBS_NODEFILE processor list of section 4.2: one
// hostname entry per processor slot ("8 entries for each node"), allocated
// in order by the framework's own scheduler — one processor for the master,
// then the workers, then each worker's client-server job "by allocating the
// required number of processors next available in the machinefile".
type Machinefile struct {
	entries []string
}

// GenerateMachinefile fabricates a PBS-style machinefile: coresPerNode
// consecutive entries per node (PBS writes 8 per node on the paper's
// cluster).
func GenerateMachinefile(nodes, coresPerNode int) *Machinefile {
	if nodes < 1 || coresPerNode < 1 {
		panic("mw: GenerateMachinefile needs positive nodes and cores")
	}
	m := &Machinefile{}
	for n := 0; n < nodes; n++ {
		host := fmt.Sprintf("node%03d", n)
		for c := 0; c < coresPerNode; c++ {
			m.entries = append(m.entries, host)
		}
	}
	return m
}

// Allocation maps every process of a deployment to a processor slot, in the
// order section 4.2 describes. Worker restarts reuse the same slots ("when a
// worker is restarted by the master; it is restarted on the same
// processors").
type Allocation struct {
	// Master is the master's processor.
	Master string
	// Workers holds the d+3 worker processors, index = rank-1.
	Workers []string
	// Servers holds each worker's server processor.
	Servers []string
	// Clients holds each worker's Ns client processors.
	Clients [][]string
}

// Allocate assigns processors for a d-dimensional deployment with Ns
// simulations per vertex: 1 master, d+3 workers, then per worker a server
// and Ns clients from the next available slots.
func (m *Machinefile) Allocate(d, ns int) (*Allocation, error) {
	if d < 1 || ns < 1 {
		return nil, errors.New("mw: Allocate needs d >= 1 and ns >= 1")
	}
	need := ExpectedProcesses(d, ns)
	if need > len(m.entries) {
		return nil, fmt.Errorf("mw: deployment needs %d processors, machinefile has %d", need, len(m.entries))
	}
	next := 0
	take := func() string {
		e := m.entries[next]
		next++
		return e
	}
	a := &Allocation{Master: take()}
	workers := d + 3
	for w := 0; w < workers; w++ {
		a.Workers = append(a.Workers, take())
	}
	for w := 0; w < workers; w++ {
		a.Servers = append(a.Servers, take())
		clients := make([]string, ns)
		for c := range clients {
			clients[c] = take()
		}
		a.Clients = append(a.Clients, clients)
	}
	return a, nil
}

// Total returns the number of allocated processors.
func (a *Allocation) Total() int {
	n := 1 + len(a.Workers) + len(a.Servers)
	for _, c := range a.Clients {
		n += len(c)
	}
	return n
}

// NodeUsage counts allocated slots per host, for placement reports.
func (a *Allocation) NodeUsage() map[string]int {
	usage := map[string]int{a.Master: 1}
	for _, w := range a.Workers {
		usage[w]++
	}
	for _, s := range a.Servers {
		usage[s]++
	}
	for _, cl := range a.Clients {
		for _, c := range cl {
			usage[c]++
		}
	}
	return usage
}
