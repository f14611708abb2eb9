// Package tracepipe is the cluster-wide streaming trace pipeline: the
// trace-data half of the paper's §4.5 KTAUD story, completing what perfmon
// does for profiles. Each node runs a KTAUD-style agent that periodically
// drains every task's kernel trace ring through the instrumented
// /proc/ktau/trace path (plus the TAU user-level rings and the MPI message
// log exposed by the deployment's sources), frames the records with
// node/pid/lost-count metadata, and ships them over the simulated TCP
// network to an elected collector — through the same instrumented path as
// application traffic, so the pipeline observes its own interference.
//
// The collector performs a deterministic cross-node virtual-time merge
// (reusing the runner's (time, source, seq) ordering discipline), correlates
// MPI send/recv endpoint events into Chrome trace-event flow arrows (the
// message lines of the paper's Fig. 2-D), tracks per-node
// drop/loss/backlog self-metrics alongside the perfmon views, and writes a
// whole-cluster Perfetto-loadable trace.
//
// Frames travel over the agent→collector transport perfmon also uses
// (internal/collect), so the pipeline shares perfmon's fault discipline: a
// send that times out re-elects a live collector when the old one died and
// reconnects, a frame that still cannot be shipped is dropped (counted in
// the agent's next frame, never silent), and sinks receive with timeouts,
// count-and-drop damaged frames, and mark silent nodes down. Agents retry
// transient procfs errors with bounded backoff and self-report rounds that
// stayed unreadable.
package tracepipe

import (
	"errors"
	"fmt"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/collect"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/libktau"
	"ktau/internal/sim"
)

// UserSource exposes one process's user-level (TAU) trace ring to the
// node's agent. Drain must return the buffered records (already resolved to
// names) and the ring's cumulative lost count, consuming the buffer; the
// returned slice's ownership passes to the pipeline (adaptive deployments
// filter it in place). It is called from the agent's task on the process's
// own node, so it runs inside that node's engine and needs no locking.
type UserSource struct {
	PID   int
	Task  string
	Drain func() (recs []Rec, lost uint64)
}

// MsgSource exposes one process's MPI message endpoint log to the node's
// agent (same execution context rules as UserSource).
type MsgSource struct {
	Drain func() []Msg
}

// Config parameterises a deployment.
type Config struct {
	// Interval between collection rounds on every agent (default 25ms —
	// trace rings fill much faster than profiles change).
	Interval time.Duration
	// Rounds bounds each agent's collection loop (0 = run until Stop).
	Rounds int
	// UserSources returns the node's user-level trace rings (nil = none).
	UserSources func(nodeIdx int) []UserSource
	// MsgSources returns the node's MPI message logs (nil = none).
	MsgSources func(nodeIdx int) []MsgSource
	// ShipCostPerKB models agent-side processing cost per KiB of trace data
	// each round (default 20us/KB, as KTAUD).
	ShipCostPerKB time.Duration
	// ReadRetries bounds how many times an agent retries a failed trace
	// read within one round before skipping the ring (default 3).
	ReadRetries int
	// ReadBackoff is the sleep between trace read retries (default
	// Interval/10).
	ReadBackoff time.Duration
	// RecvTimeout bounds each sink receive (default 4×Interval).
	RecvTimeout time.Duration
	// SendTimeout bounds each agent's frame transmission (default
	// 4×Interval).
	SendTimeout time.Duration
	// PeerDownAfter is how many consecutive receive timeouts a sink
	// tolerates before marking its node down and exiting (default 3).
	PeerDownAfter int
	// Adaptive, when non-nil, enables deterministic per-group sampling and
	// backlog throttling on every agent (nil = full tracing, the historical
	// behaviour — no RNG draws are made, so existing runs are unperturbed).
	Adaptive *Adaptive
	// Focus, when non-nil, runs the collector-driven policy loop: flagged
	// nodes get Focus.Full, everyone else stays on Adaptive.Base. Requires
	// Adaptive and a perfmon store to watch.
	Focus *FocusConfig
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ShipCostPerKB <= 0 {
		c.ShipCostPerKB = 20 * time.Microsecond
	}
	if c.ReadRetries <= 0 {
		c.ReadRetries = 3
	}
	if c.ReadBackoff <= 0 {
		c.ReadBackoff = c.Interval / 10
	}
	if c.RecvTimeout <= 0 {
		c.RecvTimeout = 4 * c.Interval
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 4 * c.Interval
	}
	if c.PeerDownAfter <= 0 {
		c.PeerDownAfter = 3
	}
}

// Pipeline is a deployed trace pipeline.
type Pipeline struct {
	cfg     Config
	c       *cluster.Cluster
	col     *Collector
	tr      *collect.Transport[Frame]
	stopped bool

	// Adaptive-mode state. ad/focus are defaulted copies of the config's
	// pointers; polBoxes[i] is node i's pushed-policy slot (written by posts
	// on node i's engine, read by node i's agent); stats[i] is node i's
	// agent bookkeeping (read by tests once the cluster is quiescent);
	// lastPushed and nextFocus belong to the barrier-hook focus loop.
	ad         *Adaptive
	focus      *FocusConfig
	polBoxes   []*policyBox
	stats      []*agentStats
	lastPushed []Policy
	nextFocus  sim.Time
}

// Deploy elects a collector (collect.Elect), connects every other node to it
// over the simulated network, and spawns the per-node trace agent daemons
// ("ktraced") plus one sink per connection on the collector
// ("ktrace-sink"). Call before driving the workload; Stop and drain
// afterwards.
func Deploy(c *cluster.Cluster, cfg Config) (*Pipeline, error) {
	cfg.defaults()
	tr, err := collect.New(c, collect.Spec[Frame]{
		AgentTask:     "ktraced",
		SinkTask:      "ktrace-sink",
		Decode:        DecodeFrame,
		Last:          func(f Frame) bool { return f.Last },
		CostPerKB:     cfg.ShipCostPerKB,
		RecvTimeout:   cfg.RecvTimeout,
		SendTimeout:   cfg.SendTimeout,
		PeerDownAfter: cfg.PeerDownAfter,
	})
	if err != nil {
		return nil, fmt.Errorf("tracepipe: %w", err)
	}
	tp := &Pipeline{
		cfg:   cfg,
		c:     c,
		col:   NewCollector(len(c.Nodes), c.Node(0).K.Params().HZ),
		tr:    tr,
		stats: make([]*agentStats, len(c.Nodes)),
	}
	if cfg.Focus != nil && cfg.Adaptive == nil {
		return nil, errors.New("tracepipe: Focus requires Adaptive")
	}
	if cfg.Adaptive != nil {
		ad := cfg.Adaptive.withDefaults()
		tp.ad = &ad
		tp.polBoxes = make([]*policyBox, len(c.Nodes))
		for i := range tp.polBoxes {
			tp.polBoxes[i] = &policyBox{}
		}
	}
	if cfg.Focus != nil {
		if cfg.Focus.Store == nil {
			return nil, errors.New("tracepipe: Focus requires a perfmon store to watch")
		}
		fc := cfg.Focus.withDefaults()
		tp.focus = &fc
		tp.lastPushed = make([]Policy, len(c.Nodes))
		for i := range tp.lastPushed {
			tp.lastPushed[i] = tp.ad.Base
		}
		c.Runner.OnBarrier(tp.focusTick)
	}
	for i, n := range c.Nodes {
		tp.col.SetNodeName(i, n.Name)
	}
	// Start registers the transport's barrier hook after the focus loop.
	tr.Start(tp.col, tp.agent)
	return tp, nil
}

// Store returns the collector's trace store (merge, flows, exports).
func (tp *Pipeline) Store() *Collector { return tp.col }

// Collector returns the current collector node index (it changes when the
// elected node dies and the agents fail over).
func (tp *Pipeline) Collector() int { return tp.tr.Collector() }

// Failovers returns how many collector re-elections have happened.
func (tp *Pipeline) Failovers() int { return tp.tr.Failovers() }

// Config returns the deployment configuration (defaults applied).
func (tp *Pipeline) Config() Config { return tp.cfg }

// Tasks returns every task the deployment spawned (agents then sinks).
// Failover spawns replacement sinks, so re-query after driving the engine.
func (tp *Pipeline) Tasks() []*kernel.Task { return tp.tr.Tasks() }

// Stop asks every agent to perform one final drain round (flagged Last) and
// exit; sinks exit after ingesting the final frame. Drive the engine
// afterwards to drain the pipeline.
func (tp *Pipeline) Stop() { tp.stopped = true }

// streamMeta is one stream's per-agent bookkeeping: the cumulative lost and
// sampled-out counters, and the values last shipped to the collector (so a
// quiet stream is skipped, not re-sent).
type streamMeta struct {
	lastLost uint64
	sampled  uint64
	shipped  uint64 // value of sampled when the stream was last shipped
}

// agentStats is the cumulative self-reported loss accounting one agent
// carries between rounds and embeds in every frame. The streams map is
// bounded: entries for exited tasks are evicted once their final state has
// shipped (perfmon's prevProc discipline), so task churn cannot grow it
// without limit.
type agentStats struct {
	readErrs    uint64
	dropped     uint64
	droppedRecs uint64
	streams     map[streamKey]*streamMeta
}

// stream returns (creating if needed) the bookkeeping for one stream key.
func (st *agentStats) stream(key streamKey) *streamMeta {
	m := st.streams[key]
	if m == nil {
		m = &streamMeta{}
		st.streams[key] = m
	}
	return m
}

// agent returns the body of node idx's trace daemon. Kernel rings are
// drained through the node's shared procfs instance (so injected procfs
// faults reach the trace reads), user rings and message logs through the
// configured sources.
func (tp *Pipeline) agent(idx int, n *cluster.Node, route *collect.Route[Frame]) func(*kernel.UCtx) {
	h := libktau.Open(n.FS)
	cfg := tp.cfg
	// The sampler draws from a stream derived at deployment time (never from
	// live RNG state), so adding the trace pipeline to a run perturbs no
	// other consumer's sequence and sampled runs stay byte-identical at any
	// worker count. Non-adaptive deployments make no draws at all.
	var smp *sim.RNG
	if tp.ad != nil {
		smp = tp.c.RNG.Stream("tracepipe/sample/" + n.Name)
	}
	st := &agentStats{streams: make(map[streamKey]*streamMeta)}
	tp.stats[idx] = st
	return func(u *kernel.UCtx) {
		var thr throttle
		var encBuf []byte // frame-encode scratch, reused every round
		for round := 0; ; round++ {
			if cfg.Rounds > 0 && round >= cfg.Rounds {
				return
			}
			final := tp.stopped
			if !final {
				u.Sleep(cfg.Interval)
				final = tp.stopped
			}
			last := final || (cfg.Rounds > 0 && round == cfg.Rounds-1)

			var pol Policy
			if tp.ad != nil {
				base := tp.ad.Base
				if box := tp.polBoxes[idx]; box.ok {
					base = box.p
				}
				pol = tp.ad.effective(base, thr.level)
			}
			f := tp.drainRound(u, h, idx, n, round, last, st, pol, smp)
			f.Throttle = uint32(thr.level)
			encBuf = AppendFrame(encBuf[:0], f)
			payload := encBuf // link.push copies; safe to reuse next round

			// User-space processing: ring walks + dictionary encode.
			u.Compute(time.Duration(len(payload)/1024+1) * cfg.ShipCostPerKB)

			shipped := route.Ship(u, f, payload)
			if !shipped {
				st.dropped++
				st.droppedRecs += uint64(f.records())
			}
			if tp.ad != nil {
				thr.observe(tp.ad, f.Backlog, !shipped)
			}
			if f.Last {
				return
			}
		}
	}
}

// drainRound drains every ring on the node into one frame: kernel trace
// rings via the instrumented /proc/ktau/trace two-call protocol (task
// creation order, so the stream layout is deterministic), then the
// configured user-level rings and MPI message logs. When pol carries an
// adaptive policy (smp non-nil), each drained record is kept or discarded by
// the node's seeded sampler; discards are counted per stream so the loss
// accounting stays exact. MPI message events are never sampled — flow
// correlation needs both endpoints.
func (tp *Pipeline) drainRound(u *kernel.UCtx, h libktau.Handle, idx int,
	n *cluster.Node, round int, last bool, st *agentStats, pol Policy, smp *sim.RNG) Frame {

	cfg := tp.cfg
	f := Frame{Node: n.Name, NodeIdx: idx, Round: round, Last: last}
	reg := n.K.Ktau().Reg

	// One backing array holds every kernel stream's records this round: a
	// single sized allocation instead of per-record append growth. The frame
	// is retained by the collector, so the backing is owned by this round
	// (not pooled); streams are capacity-capped subslices so a later append
	// to recBuf can never alias an earlier stream.
	tasks := n.K.AllTasks()
	waitingRecs := 0
	for _, t := range tasks {
		if ring := t.KD().Trace(); ring != nil {
			waitingRecs += ring.Len()
		}
	}
	recBuf := make([]Rec, 0, waitingRecs)

	for _, t := range tasks {
		ring := t.KD().Trace()
		if ring == nil {
			continue
		}
		waiting := uint64(ring.Len())
		key := streamKey{NodeIdx: idx, PID: t.PID(), Kernel: true}
		m, tracked := st.streams[key]
		if waiting == 0 {
			if !tracked {
				// Nothing buffered and nothing shipped before: an exited (or
				// never-active) ring with no new state. The only way an
				// untracked empty ring can show Lost > 0 is a drain that
				// already shipped that loss before the entry was evicted, so
				// skipping an exited one loses nothing.
				if t.Exited() || ring.Lost() == 0 {
					continue
				}
			} else if ring.Lost() == m.lastLost {
				if t.Exited() {
					// Final state already shipped: evict the bookkeeping so
					// the map stays bounded under task churn.
					delete(st.streams, key)
				}
				continue
			}
		}
		f.Backlog += waiting

		var dump libktau.TraceDump
		readOK := false
		for attempt := 0; attempt < cfg.ReadRetries; attempt++ {
			if attempt > 0 {
				u.Sleep(cfg.ReadBackoff)
			}
			u.Syscall("sys_ioctl", func(kc *kernel.KCtx) { kc.Use(2 * time.Microsecond) })
			var err error
			dump, err = h.GetTrace(t.PID())
			u.Syscall("sys_read", func(kc *kernel.KCtx) { kc.Use(4 * time.Microsecond) })
			if err == nil {
				readOK = true
				break
			}
		}
		if !readOK {
			st.readErrs++
			continue
		}
		m = st.stream(key)
		s := Stream{PID: t.PID(), Task: t.Name(), Kernel: true, Lost: dump.Lost}
		start := len(recBuf)
		for _, r := range dump.Records {
			if smp != nil && !sample(smp, pol.rateFor(reg.GroupOf(r.Ev))) {
				m.sampled++
				continue
			}
			recBuf = append(recBuf, Rec{TSC: r.TSC, Name: reg.Name(r.Ev), Kind: r.Kind, Val: r.Val})
		}
		s.Recs = recBuf[start:len(recBuf):len(recBuf)]
		s.Sampled = m.sampled
		if len(s.Recs) > 0 || s.Lost != m.lastLost || m.sampled != m.shipped {
			m.lastLost = s.Lost
			m.shipped = m.sampled
			f.Streams = append(f.Streams, s)
		}
	}

	if cfg.UserSources != nil {
		for _, src := range cfg.UserSources(idx) {
			recs, lost := src.Drain()
			key := streamKey{NodeIdx: idx, PID: src.PID, Kernel: false}
			m := st.streams[key]
			if m == nil {
				if len(recs) == 0 && lost == 0 {
					continue
				}
				m = st.stream(key)
			}
			f.Backlog += uint64(len(recs))
			if smp != nil {
				rate := pol.rateFor(ktau.GroupUser)
				kept := recs[:0]
				for _, r := range recs {
					if !sample(smp, rate) {
						m.sampled++
						continue
					}
					kept = append(kept, r)
				}
				recs = kept
			}
			if len(recs) == 0 && lost == m.lastLost && m.sampled == m.shipped {
				continue
			}
			m.lastLost = lost
			m.shipped = m.sampled
			f.Streams = append(f.Streams, Stream{
				PID: src.PID, Task: src.Task, Lost: lost, Sampled: m.sampled, Recs: recs,
			})
		}
	}
	if cfg.MsgSources != nil {
		for _, src := range cfg.MsgSources(idx) {
			f.Msgs = append(f.Msgs, src.Drain()...)
		}
	}
	f.ReadErrs = st.readErrs
	f.Dropped = st.dropped
	f.DroppedRecs = st.droppedRecs
	return f
}
