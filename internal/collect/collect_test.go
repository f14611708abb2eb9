package collect

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
)

func TestLinkQueue(t *testing.T) {
	l := &link{}
	if !l.empty() {
		t.Fatal("new link not empty")
	}
	buf := []byte("one")
	l.push(buf)
	copy(buf, "XXX") // the queue owns a copy; the caller may reuse buf
	l.push([]byte("two"))
	if p, ok := l.peek(); !ok || string(p) != "one" {
		t.Fatalf("peek = %q, %v; want \"one\"", p, ok)
	}
	l.popFront()
	if p, _ := l.peek(); string(p) != "two" {
		t.Fatalf("peek after pop = %q, want \"two\"", p)
	}
	l.clearPending()
	if !l.empty() || l.isReplaced() {
		t.Fatal("clearPending must drop payloads without retiring the link")
	}
	l.push([]byte("three"))
	l.retire()
	if !l.empty() || !l.isReplaced() {
		t.Fatal("retire must drop payloads and mark the link replaced")
	}
	l.popFront() // popping an empty queue is a no-op
}

func TestElectPrefersMostCPUs(t *testing.T) {
	c := cluster.New(cluster.Config{Seed: 1, Nodes: []cluster.NodeSpec{
		{Name: "n0", CPUs: 2}, {Name: "n1", CPUs: 4}, {Name: "n2", CPUs: 4},
	}})
	defer c.Shutdown()
	if got := Elect(c); got != 1 {
		t.Fatalf("Elect = %d, want 1 (most CPUs, lowest index)", got)
	}
	c.Node(1).K.Crash()
	c.PublishViews()
	if got := Elect(c); got != 2 {
		t.Fatalf("Elect with node 1 crashed = %d, want 2", got)
	}
}

// roundStore records ingested round numbers per node for a toy frame type:
// a frame is its 4-byte round number, and round `last` ends the stream.
type roundStore struct {
	mu     sync.Mutex
	rounds map[int][]uint32
	wire   map[int]int
}

func (s *roundStore) Ingest(f [2]uint32, wireBytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node := int(f[0])
	s.rounds[node] = append(s.rounds[node], f[1])
	s.wire[node] += wireBytes
}

func (s *roundStore) Drop(int)     {}
func (s *roundStore) MarkDown(int) {}

// TestTransportShipsEveryRound drives the transport with a toy frame type
// (node, round) — nothing perfmon- or tracepipe-specific — and checks every
// round reaches the store and every task exits after the Last frame.
func TestTransportShipsEveryRound(t *testing.T) {
	const nodes, rounds = 3, 5
	c := cluster.New(cluster.Config{Nodes: cluster.UniformNodes("n", nodes), Seed: 3})
	defer c.Shutdown()
	tr, err := New(c, Spec[[2]uint32]{
		AgentTask: "agent", SinkTask: "sink",
		Decode: func(b []byte) ([2]uint32, error) {
			if len(b) != 8 {
				return [2]uint32{}, errors.New("bad frame")
			}
			return [2]uint32{binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])}, nil
		},
		Last:        func(f [2]uint32) bool { return f[1] == rounds-1 },
		CostPerKB:   time.Microsecond,
		RecvTimeout: 40 * time.Millisecond, SendTimeout: 40 * time.Millisecond,
		PeerDownAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &roundStore{rounds: map[int][]uint32{}, wire: map[int]int{}}
	tr.Start(st, func(idx int, n *cluster.Node, r *Route[[2]uint32]) func(*kernel.UCtx) {
		return func(u *kernel.UCtx) {
			for round := uint32(0); round < rounds; round++ {
				u.Sleep(10 * time.Millisecond)
				f := [2]uint32{uint32(idx), round}
				payload := binary.LittleEndian.AppendUint32(nil, f[0])
				payload = binary.LittleEndian.AppendUint32(payload, f[1])
				if !r.Ship(u, f, payload) {
					t.Errorf("node %d round %d not handed off", idx, round)
				}
			}
		}
	})
	if !c.RunUntilDone(tr.Tasks(), time.Minute) {
		t.Fatal("transport did not drain")
	}
	if got := len(tr.Tasks()); got != 2*nodes-1 {
		t.Fatalf("%d tasks, want %d agents + %d sinks", got, nodes, nodes-1)
	}
	for i := 0; i < nodes; i++ {
		if len(st.rounds[i]) != rounds {
			t.Errorf("node %d: ingested rounds %v, want %d", i, st.rounds[i], rounds)
		}
		if wantWire := (HeaderBytes + 8) * rounds; i != tr.Collector() && st.wire[i] != wantWire {
			t.Errorf("node %d: %d wire bytes, want %d", i, st.wire[i], wantWire)
		}
	}
	if st.wire[tr.Collector()] != 0 {
		t.Errorf("collector's local ingest counted %d wire bytes", st.wire[tr.Collector()])
	}
}
