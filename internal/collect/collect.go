// Package collect is the agent→collector transport shared by the perfmon
// (profile) and tracepipe (trace) pipelines — the one instrumented path over
// which KTAUD-style daemons ship their data to an elected collector node
// (§4.5). A pipeline supplies only its round body and frame codec; the
// transport owns everything in between:
//
//   - election of the collector (most CPUs, lowest index, from the
//     barrier-published crash views);
//   - one simulated TCP connection per monitored node, with a Go-side payload
//     queue riding alongside the byte counts the stream carries;
//   - the per-agent route, which re-elects and reconnects when a send times
//     out (collector failover), with every collector-side mutation posted to
//     the new collector's engine;
//   - one sink task per connection that receives with timeouts, counts and
//     drops damaged or desynced frames, marks silent nodes down, and always
//     exits rather than blocking forever.
//
// The transport is generic over the frame type F and never branches on
// which pipeline drives it.
package collect

import (
	"errors"
	"sync"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/tcpsim"
)

// HeaderBytes is the fixed on-wire preamble preceding each frame's payload:
// magic(4) + version(4) + payload length(4) + reserved(4). The sink reads it
// first to learn how much more to receive.
const HeaderBytes = 16

// Elect picks the collector node deterministically among live nodes: the
// node with the most CPUs wins (it absorbs the aggregation load), ties
// broken by lowest index — a stand-in for a leader election among identical
// daemons. It returns -1 when no live node exists. Liveness is judged from
// the barrier-published crash views (Kernel.CrashedSeen), so an election run
// from inside any node's window is deterministic; after crashing a node by
// hand while the cluster is quiescent, call Cluster.PublishViews before
// electing.
func Elect(c *cluster.Cluster) int {
	best := -1
	for i, n := range c.Nodes {
		if n.K.CrashedSeen() {
			continue
		}
		if best < 0 || n.K.NumCPUs() > c.Node(best).K.NumCPUs() {
			best = i
		}
	}
	return best
}

// Spec describes one pipeline to the transport.
type Spec[F any] struct {
	// AgentTask and SinkTask name the per-node daemon and the collector-side
	// receiver tasks.
	AgentTask, SinkTask string
	// Decode parses a frame payload; Last reports whether a frame is its
	// agent's final one (the sink exits after ingesting it).
	Decode func([]byte) (F, error)
	Last   func(F) bool
	// CostPerKB is the sink's user-space decode + ingest cost per KiB of
	// payload.
	CostPerKB time.Duration
	// RecvTimeout bounds each sink receive, SendTimeout each agent send.
	RecvTimeout, SendTimeout time.Duration
	// PeerDownAfter is how many consecutive receive timeouts a sink
	// tolerates before marking its node down and exiting.
	PeerDownAfter int
}

// Store is the collector-side state a transport feeds. Node arguments are
// cluster node indices. The store is held host-side (not by the collector
// node), so it survives a collector crash with every pre-crash frame.
type Store[F any] interface {
	// Ingest merges one decoded frame; wireBytes is the on-wire size of the
	// shipment (0 for the collector's local loopback).
	Ingest(f F, wireBytes int)
	// Drop counts one damaged or desynced frame from the node.
	Drop(node int)
	// MarkDown flags a node that stopped reporting.
	MarkDown(node int)
}

// link carries the Go-side payload queue of one agent→collector connection;
// the simulated TCP stream carries matching byte counts (the same framing
// convention mpisim uses), so the transfer is fully charged as kernel work
// on both nodes while the decoded payload rides alongside deterministically.
//
// The pending queue is pushed from the agent's node window and popped from
// the collector's, which can overlap under parallel execution — hence the
// lock. The popped values are still deterministic: a payload is pushed at
// send time, at least one wire latency (= one window barrier) before the
// sink can have received the matching preamble bytes. replaced is set and
// read only in the sink node's engine context (the agent retires a link by
// posting the flip through the runner), so the sink's exit decision cannot
// depend on worker interleaving.
type link struct {
	nodeIdx   int          // monitored node this link carries
	sinkNode  int          // collector node the sink runs on
	agentConn *tcpsim.Conn // agent-side endpoint
	sinkConn  *tcpsim.Conn // collector-side endpoint

	mu       sync.Mutex
	pending  [][]byte // encoded frames in flight, FIFO
	replaced bool     // the agent abandoned this link (failover/reconnect)
}

// push enqueues one encoded frame. The queue owns its payloads — p is copied
// out, so callers may pass a scratch buffer they will overwrite next round.
func (l *link) push(p []byte) {
	cp := append(make([]byte, 0, len(p)), p...)
	l.mu.Lock()
	l.pending = append(l.pending, cp)
	l.mu.Unlock()
}

func (l *link) peek() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return nil, false
	}
	return l.pending[0], true
}

func (l *link) popFront() {
	l.mu.Lock()
	if len(l.pending) > 0 {
		l.pending = l.pending[1:]
	}
	l.mu.Unlock()
}

func (l *link) empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) == 0
}

// clearPending discards queued payloads after a failed send; the stream
// (and anything on it) is considered lost.
func (l *link) clearPending() {
	l.mu.Lock()
	l.pending = nil
	l.mu.Unlock()
}

// retire marks the link abandoned by its agent. Runs on the sink node's
// engine.
func (l *link) retire() {
	l.mu.Lock()
	l.pending = nil
	l.replaced = true
	l.mu.Unlock()
}

func (l *link) isReplaced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replaced
}

// Transport is one deployed agent→collector path: every node's agent, the
// collector's sinks, and the failover bookkeeping.
type Transport[F any] struct {
	spec  Spec[F]
	c     *cluster.Cluster
	store Store[F]
	// agents is indexed by node. agentDone is its barrier-published exit
	// view: sinks on the collector read it instead of the live task state.
	agents    []*kernel.Task
	agentDone []bool

	// mu guards the collector-side bookkeeping below. It is mutated only in
	// collector-node engine contexts (directly, or via closures posted
	// through the runner) and read back by user code once the cluster is
	// quiescent; the lock is belt-and-braces for pathological multi-crash
	// cascades.
	mu         sync.Mutex
	collector  int
	sinks      []*kernel.Task
	failovers  int
	downMarked map[int]bool
}

// New elects the collector for a transport over c. It runs while the
// cluster is quiescent, so it refreshes the published views first: the
// election sees any crash injected since the last barrier. It fails when
// the cluster has no live node to collect on. Call Start to spawn the
// tasks.
func New[F any](c *cluster.Cluster, spec Spec[F]) (*Transport[F], error) {
	if len(c.Nodes) == 0 {
		return nil, errors.New("cannot deploy on an empty cluster")
	}
	c.PublishViews()
	collector := Elect(c)
	if collector < 0 {
		return nil, errors.New("no live node to collect on")
	}
	return &Transport[F]{
		spec:       spec,
		c:          c,
		collector:  collector,
		agentDone:  make([]bool, len(c.Nodes)),
		downMarked: make(map[int]bool),
	}, nil
}

// Start connects every other node to the collector over the simulated
// network and spawns, per node, the agent daemon running agent's body plus
// one sink on the collector for its connection. The collector's own agent
// ingests locally, without a network hop. Call once, before driving the
// engine.
func (t *Transport[F]) Start(store Store[F], agent func(idx int, n *cluster.Node, r *Route[F]) func(*kernel.UCtx)) {
	t.store = store
	for i, n := range t.c.Nodes {
		r := &Route[F]{t: t, idx: i, collector: t.collector}
		if i != t.collector {
			r.l = t.connect(i, t.collector)
		}
		t.agents = append(t.agents, n.K.Spawn(t.spec.AgentTask, agent(i, n, r),
			kernel.SpawnOpts{Kind: kernel.KindDaemon}))
		if r.l != nil {
			t.sinks = append(t.sinks, t.spawnSink(r.l))
		}
	}
	t.c.Runner.OnBarrier(t.publishViews)
}

// publishViews refreshes the barrier-published agent-exit flags the sinks
// read. Runs at every window barrier.
func (t *Transport[F]) publishViews() {
	for i, task := range t.agents {
		t.agentDone[i] = task.Exited()
	}
}

// Collector returns the current collector node index (it changes when the
// elected node dies and the agents fail over).
func (t *Transport[F]) Collector() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.collector
}

// Failovers returns how many collector re-elections have happened.
func (t *Transport[F]) Failovers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failovers
}

// Tasks returns every task the transport spawned (agents then sinks).
// Failover spawns replacement sinks, so re-query after driving the engine.
func (t *Transport[F]) Tasks() []*kernel.Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*kernel.Task, 0, len(t.agents)+len(t.sinks))
	out = append(out, t.agents...)
	out = append(out, t.sinks...)
	return out
}

// connect opens a fresh agent→collector connection for node idx.
func (t *Transport[F]) connect(idx, collector int) *link {
	agentConn, sinkConn := tcpsim.Connect(t.c.Node(idx).Stack, t.c.Node(collector).Stack)
	return &link{nodeIdx: idx, sinkNode: collector, agentConn: agentConn, sinkConn: sinkConn}
}

// send queues a payload on the link and transmits its preamble+payload
// bytes, reporting whether the stream accepted them before SendTimeout.
func (t *Transport[F]) send(u *kernel.UCtx, l *link, payload []byte) bool {
	l.push(payload)
	return l.agentConn.SendTimeout(u, HeaderBytes+len(payload), t.spec.SendTimeout)
}

// noteFailover records one collector transition on the (new) collector's
// side: the first reporter of a dead collector marks it down and bumps the
// count, followers are deduplicated. dead is -1 when the old collector is
// still alive (a plain reconnect). Runs in the new collector's engine
// context.
func (t *Transport[F]) noteFailover(dead, newCollector int) {
	t.mu.Lock()
	t.collector = newCollector
	first := dead >= 0 && !t.downMarked[dead]
	if first {
		t.downMarked[dead] = true
		t.failovers++
	}
	t.mu.Unlock()
	if first {
		t.store.MarkDown(dead)
	}
}

// Route is one agent's private view of where its frames go. Each agent owns
// its own route — there is no shared routing table to race on — and
// re-elects from the barrier-published crash views when its link breaks.
type Route[F any] struct {
	t         *Transport[F]
	idx       int   // the agent's node
	collector int   // target node; -1 when no live collector exists
	l         *link // nil when the agent ingests locally (it is the collector)
}

// Ship delivers one frame (f, with its encoded payload) to the agent's
// current collector and reports whether it was handed off: ingested
// locally when this node is the collector, otherwise accepted by the link.
// A send that times out means the collector is unreachable — the agent
// re-elects and reconnects, re-shipping this frame on the fresh link. The
// payload is copied, so callers may reuse its buffer.
func (r *Route[F]) Ship(u *kernel.UCtx, f F, payload []byte) bool {
	t := r.t
	if r.collector == r.idx {
		t.store.Ingest(f, 0)
		return true
	}
	if r.l != nil {
		if t.send(u, r.l, payload) {
			return true
		}
		// The send stalled: the stream (and anything still queued on it) is
		// considered lost; the store sees the hole as missed rounds. Tell
		// the sink in its own engine context, so the hand-off is
		// deterministic.
		t.c.CrossCall(r.idx, r.l.sinkNode, r.l.retire)
		r.l = nil
	}
	return r.reroute(u, f, payload)
}

// reroute reconnects the node to a live collector after its link broke,
// re-electing first when the collector node itself is dead (judged from the
// barrier-published crash views). The frame that triggered the reroute is
// re-shipped on the fresh link (or ingested locally when this node just
// became the collector). Collector-side bookkeeping — sink spawn, failover
// accounting, marking the dead node down — is posted to the new collector's
// engine through the runner, keeping every store mutation in a collector
// context.
func (r *Route[F]) reroute(u *kernel.UCtx, f F, payload []byte) bool {
	t := r.t
	dead := -1
	if r.collector < 0 || t.c.Node(r.collector).K.CrashedSeen() {
		dead = r.collector
		next := Elect(t.c)
		if next < 0 {
			// Nobody left to collect on: degrade to silence. The agent keeps
			// running so a later operator intervention could still reach it.
			r.collector = -1
			r.l = nil
			return false
		}
		r.collector = next
	}
	if r.collector == r.idx {
		// This node just became the collector: account for the transition
		// right here (this is the collector's engine context) and ingest
		// locally from now on.
		r.l = nil
		t.noteFailover(dead, r.idx)
		t.store.Ingest(f, 0)
		return true
	}
	l := t.connect(r.idx, r.collector)
	r.l = l
	newCollector := r.collector
	t.c.CrossCall(r.idx, newCollector, func() {
		t.noteFailover(dead, newCollector)
		sink := t.spawnSink(l)
		t.mu.Lock()
		t.sinks = append(t.sinks, sink)
		t.mu.Unlock()
	})
	if !t.send(u, l, payload) {
		// Still unreachable (e.g. the replacement died too, or a partition):
		// give up on this frame; the next round retries the whole path.
		t.c.CrossCall(r.idx, l.sinkNode, l.clearPending)
		return false
	}
	return true
}

// spawnSink starts one collector-side receiver for a link: it waits (with a
// timeout) for the fixed preamble, learns the payload length from the
// framing queue, receives the payload, decodes and ingests it. Damaged or
// desynced frames are counted and dropped, never fatal; a link that stays
// silent is diagnosed — node crashed, link replaced by failover, agent
// finished — and the sink always exits rather than blocking forever.
func (t *Transport[F]) spawnSink(l *link) *kernel.Task {
	spec, st := t.spec, t.store
	return t.c.Node(l.sinkNode).K.Spawn(spec.SinkTask, func(u *kernel.UCtx) {
		node := t.c.Node(l.nodeIdx)
		timeouts := 0
		for {
			if !l.sinkConn.RecvTimeout(u, HeaderBytes, spec.RecvTimeout) {
				timeouts++
				if l.isReplaced() {
					return // failover replaced this link; the new sink owns the stream
				}
				if node.K.CrashedSeen() {
					st.MarkDown(l.nodeIdx)
					return
				}
				if t.agentDone[l.nodeIdx] && l.empty() {
					return // agent finished and the stream is drained
				}
				if timeouts >= spec.PeerDownAfter {
					st.MarkDown(l.nodeIdx)
					return
				}
				continue
			}
			timeouts = 0
			payload, ok := l.peek()
			if !ok {
				// Framing desync: preamble bytes with no queued payload.
				st.Drop(l.nodeIdx)
				continue
			}
			if !l.sinkConn.RecvTimeout(u, len(payload), spec.RecvTimeout) {
				timeouts++
				if l.isReplaced() || node.K.CrashedSeen() || timeouts >= spec.PeerDownAfter {
					st.Drop(l.nodeIdx)
					if node.K.CrashedSeen() || timeouts >= spec.PeerDownAfter {
						st.MarkDown(l.nodeIdx)
					}
					return
				}
				continue // body still in flight; wait again without consuming
			}
			l.popFront()
			corrupt := l.sinkConn.TakeCorrupt()
			f, err := spec.Decode(payload)
			if corrupt || err != nil {
				// Damaged in flight or undecodable: count and drop. The hole
				// shows up as a missed round on the node.
				st.Drop(l.nodeIdx)
				continue
			}
			// User-space decode + store update cost.
			u.Compute(time.Duration(len(payload)/1024+1) * spec.CostPerKB)
			st.Ingest(f, HeaderBytes+len(payload))
			if spec.Last(f) {
				return
			}
		}
	}, kernel.SpawnOpts{Kind: kernel.KindDaemon})
}
