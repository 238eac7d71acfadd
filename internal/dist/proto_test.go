package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/noise"
)

// TestFrameRoundTripProperty drives randomly generated messages through
// WriteFrame/ReadFrame and demands exact reconstruction — float64 payloads
// included, which is what the fleet's bitwise-determinism contract rides on.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		m := randomMessage(rng)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		var got Message
		if err := ReadFrame(&buf, &got); err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		return reflect.DeepEqual(*m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomMessage builds one random frame of a random type, with adversarial
// float values (denormals, extremes, negative zero) in the numeric fields.
func randomMessage(rng *rand.Rand) *Message {
	f64 := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1) // negative zero must round-trip
		case 2:
			return 5e-324 // smallest denormal
		case 3:
			return 1.797e308
		default:
			return rng.NormFloat64() * 1e6
		}
	}
	xs := func() []float64 {
		out := make([]float64, rng.Intn(5))
		for i := range out {
			out[i] = f64()
		}
		return out
	}
	switch rng.Intn(5) {
	case 0:
		return &Message{Type: TypeHello, Hello: &Hello{Name: "w", Capacity: rng.Intn(100)}}
	case 1:
		return &Message{Type: TypeWelcome, Welcome: &Welcome{Worker: "w#1", HeartbeatMillis: rng.Intn(5000)}}
	case 2:
		return &Message{Type: TypeHeartbeat}
	case 3:
		n := rng.Intn(4)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{
				ID:        rng.Uint64(),
				Objective: "rosenbrock",
				X:         xs(),
				Seed:      rng.Int63(),
				Skip:      rng.Intn(1000),
				Dt:        f64(),
			}
		}
		return &Message{Type: TypeDispatch, Dispatch: &Dispatch{Tasks: tasks}}
	default:
		n := rng.Intn(4)
		rs := make([]TaskResult, n)
		for i := range rs {
			rs[i] = TaskResult{ID: rng.Uint64(), Z: f64(), F: f64()}
		}
		return &Message{Type: TypeResults, Results: &Results{Results: rs}}
	}
}

// TestReadFrameTruncated checks the three truncation shapes: clean EOF
// before a frame, a cut prefix, and a cut body.
func TestReadFrameTruncated(t *testing.T) {
	var m Message
	if err := ReadFrame(bytes.NewReader(nil), &m); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if err := ReadFrame(bytes.NewReader([]byte{0, 0}), &m); err != io.ErrUnexpectedEOF {
		t.Errorf("cut prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	if err := ReadFrame(bytes.NewReader(cut), &m); err != io.ErrUnexpectedEOF {
		t.Errorf("cut body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameRejectsOversizeLength checks a corrupt (or hostile) length
// prefix is rejected before any allocation.
func TestReadFrameRejectsOversizeLength(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrame+1)
	var m Message
	if err := ReadFrame(bytes.NewReader(prefix[:]), &m); err == nil {
		t.Fatal("oversize length accepted")
	}
}

// TestReadFrameRejectsGarbageJSON checks a well-framed but undecodable body
// errors instead of yielding a zero message.
func TestReadFrameRejectsGarbageJSON(t *testing.T) {
	body := []byte("{not json")
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	var m Message
	if err := ReadFrame(bytes.NewReader(buf), &m); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

// TestWorkerDrawMatchesStreamReplay pins the worker-side draw to the
// reference construction the sampling layer uses: position skip of
// rand.New(rand.NewSource(seed)).NormFloat64() — including cache hits,
// misses, rewinds and interleaved streams.
func TestWorkerDrawMatchesStreamReplay(t *testing.T) {
	w := NewWorker(WorkerConfig{Addr: "unused"})
	expect := func(seed int64, skip int) float64 {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < skip; i++ {
			rng.NormFloat64()
		}
		return rng.NormFloat64()
	}
	rng := rand.New(rand.NewSource(99))
	seeds := []int64{1, -7, 1 << 40, 42}
	// Random access across streams: every draw must match the replay,
	// whatever the cache did.
	for i := 0; i < 500; i++ {
		seed := seeds[rng.Intn(len(seeds))]
		skip := rng.Intn(20)
		if got, want := w.draw(seed, skip), expect(seed, skip); got != want {
			t.Fatalf("draw(%d, %d) = %x, want %x", seed, skip, got, want)
		}
	}
	// Sequential access (the hot path) must hit the cache and still match.
	for skip := 0; skip < 50; skip++ {
		if got, want := w.draw(1234, skip), expect(1234, skip); got != want {
			t.Fatalf("sequential draw(1234, %d) = %x, want %x", skip, got, want)
		}
	}
}

// TestWorkerDrawWalksStreamForward walks one point's stream across agents
// the way a fleet does: consecutive increments land on whichever agent is
// free, so each agent sees a skip sequence with gaps. A cached position
// behind the requested one must discard its way forward, never start over:
// the stream is restarted from its seed only by a task behind the cached
// position (a re-dispatch, an out-of-order arrival), and
// dist_worker_stream_reseeds_total counts exactly those. Whatever the route,
// applying the agents' draws must leave a noise.Stream in the state its own
// Sample would.
func TestWorkerDrawWalksStreamForward(t *testing.T) {
	alternate := func(n int) (route [][2]int) {
		for skip := 0; skip < n; skip++ {
			route = append(route, [2]int{skip % 2, skip})
		}
		return route
	}
	tests := []struct {
		name        string
		route       [][2]int // (agent, skip) in arrival order; skips 0..n-1 once each, in order, unless noted
		wantReseeds int64
	}{
		{"one agent, sequential", [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}, 0},
		// 700 increments: each agent discards every other variate, across
		// the generator's state-vector build and first wraps.
		{"two agents alternating", alternate(700), 0},
		{"agent joins late", [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 3}, {1, 4}, {0, 5}}, 0},
		// Agent 1 died holding skip 2; agent 0, already past it, redoes it.
		{"re-dispatch behind the cache", [][2]int{{0, 0}, {1, 1}, {0, 2}, {0, 3}, {0, 2}, {0, 4}}, 1},
		{"same task twice", [][2]int{{0, 0}, {0, 0}, {0, 1}, {0, 1}, {0, 2}}, 2},
	}
	const seed, f, sigma0, dt = 77, 3.0, 2.0, 0.25
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			agents := []*Worker{NewWorker(WorkerConfig{Addr: "unused"}), NewWorker(WorkerConfig{Addr: "unused"})}
			local, fleet := noise.NewStream(f, sigma0, seed), noise.NewStream(f, sigma0, seed)
			before := mWorkerReseeds.Value()
			var applied []float64 // by skip
			for _, hop := range tc.route {
				z := agents[hop[0]].draw(seed, hop[1])
				if hop[1] < len(applied) {
					// A repeated task: the same bits again, and nothing to apply.
					if math.Float64bits(z) != math.Float64bits(applied[hop[1]]) {
						t.Fatalf("skip %d redone by agent %d: %x, first time %x", hop[1], hop[0], z, applied[hop[1]])
					}
					continue
				}
				applied = append(applied, z)
				fleet.ApplyDraw(dt, z)
				local.Sample(dt)
				if g, w := fleet.State(), local.State(); g != w {
					t.Fatalf("after skip %d from agent %d: state %+v, local stream %+v", hop[1], hop[0], g, w)
				}
			}
			if got := mWorkerReseeds.Value() - before; got != tc.wantReseeds {
				t.Errorf("stream restarted from its seed %d times, want %d", got, tc.wantReseeds)
			}
		})
	}
}
