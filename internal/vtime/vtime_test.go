package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(2.5)
	if got := c.Now(); got != 4.0 {
		t.Fatalf("Now() = %v, want 4.0", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("after Reset Now() = %v, want 0", got)
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockZeroAdvanceAllowed(t *testing.T) {
	var c Clock
	c.Advance(0)
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

// Property: time is monotone non-decreasing under any sequence of
// non-negative advances, and equals their sum.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []float64) bool {
		var c Clock
		sum := 0.0
		prev := 0.0
		for _, s := range steps {
			dt := math.Abs(s)
			if math.IsInf(dt, 0) || math.IsNaN(dt) || dt > 1e12 {
				continue
			}
			c.Advance(dt)
			sum += dt
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return math.Abs(c.Now()-sum) <= 1e-9*math.Max(1, math.Abs(sum))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
