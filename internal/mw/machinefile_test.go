package mw

import (
	"testing"
	"testing/quick"
)

func TestGenerateMachinefile(t *testing.T) {
	m := GenerateMachinefile(3, 8)
	if len(m.entries) != 24 {
		t.Fatalf("%d entries, want 24", len(m.entries))
	}
	if m.entries[0] != "node000" || m.entries[8] != "node001" {
		t.Fatalf("node layout wrong: %v, %v", m.entries[0], m.entries[8])
	}
}

func TestAllocateMatchesTable33(t *testing.T) {
	// The d=20/50/100, Ns=1 deployments must consume exactly the Table 3.3
	// totals.
	for _, c := range []struct{ d, want int }{{20, 70}, {50, 160}, {100, 310}} {
		m := GenerateMachinefile(c.want/8+1, 8)
		a, err := m.Allocate(c.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Total() != c.want {
			t.Errorf("d=%d: allocated %d, want %d", c.d, a.Total(), c.want)
		}
	}
}

func TestAllocateInOrder(t *testing.T) {
	// Section 4.2: master first, then workers, then each worker's
	// client-server job from the next available slots.
	m := GenerateMachinefile(20, 8)
	a, err := m.Allocate(2, 2) // 1 master, 5 workers, 5 servers, 10 clients
	if err != nil {
		t.Fatal(err)
	}
	if a.Master != "node000" {
		t.Fatalf("master on %s", a.Master)
	}
	// Workers occupy slots 1..5 (node000 has 8 slots: indices 0..7).
	if a.Workers[0] != "node000" || a.Workers[4] != "node000" {
		t.Fatalf("workers = %v", a.Workers)
	}
	// Server of worker 1 takes slot 6; clients slots 7, 8 (8 = node001).
	if a.Servers[0] != "node000" {
		t.Fatalf("server[0] on %s", a.Servers[0])
	}
	if a.Clients[0][0] != "node000" || a.Clients[0][1] != "node001" {
		t.Fatalf("clients[0] = %v", a.Clients[0])
	}
}

func TestAllocateExhaustion(t *testing.T) {
	m := GenerateMachinefile(1, 8)
	if _, err := m.Allocate(20, 1); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if _, err := m.Allocate(0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
}

// Property: for any feasible (d, ns), the allocation is exactly the formula
// size, every slot is used at most once overall, and node usage sums match.
func TestAllocationConservationProperty(t *testing.T) {
	f := func(dRaw, nsRaw uint8) bool {
		d := int(dRaw%20) + 1
		ns := int(nsRaw%4) + 1
		need := ExpectedProcesses(d, ns)
		m := GenerateMachinefile(need/4+1, 4)
		a, err := m.Allocate(d, ns)
		if err != nil {
			return false
		}
		if a.Total() != need {
			return false
		}
		total := 0
		for _, n := range a.NodeUsage() {
			total += n
		}
		return total == need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
