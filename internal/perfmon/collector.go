// Package perfmon is the cluster-wide online monitoring pipeline: the layer
// the paper's title promises ("integrated parallel performance views") built
// on top of KTAU's per-node machinery. Each node runs a KTAUD-style agent
// (§4.5) that reads /proc/ktau on an interval, delta-encodes the kernel-wide
// profile against the previous round, and ships the frame over the simulated
// TCP network to an elected collector node. Collection traffic therefore
// flows through the same instrumented TCP path as application traffic, so
// the pipeline observes its own interference — the self-observation property
// KTAU claims.
//
// The collector maintains a bounded ring-buffer time-series store (per node
// × kernel event × {calls, incl, excl}) with configurable retention and
// downsampling, answers cluster-wide queries (top-K hottest kernel routines,
// per-node merges, time-window slices), runs online detectors (OS-noise /
// daemon interference as in Figs. 8-10, slow-node ranking), and exports
// Prometheus text, JSON lines and a human ASCII cluster view.
//
// The pipeline is fault-tolerant: agents retry transient procfs errors with
// bounded backoff and ship explicit gap frames when a round's data stays
// unreadable; sinks receive with timeouts, count-and-drop damaged frames,
// and mark a node down instead of blocking forever when it stops reporting;
// and when the collector node itself dies, agents detect the broken link,
// re-elect a live collector and reconnect — the store (held by the PerfMon,
// not the dead node) keeps every pre-crash sample.
package perfmon

import (
	"fmt"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/collect"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/libktau"
)

// Config parameterises a deployment.
type Config struct {
	// Interval between collection rounds on every agent (default 100ms).
	Interval time.Duration
	// Rounds bounds each agent's collection loop (0 = run until Stop or
	// kernel shutdown). The final round is flagged so sinks drain cleanly.
	Rounds int
	// Store bounds the collector's time-series memory.
	Store StoreConfig
	// Detect configures the online detectors.
	Detect DetectConfig
	// RankPrefix identifies application processes by task-name prefix (e.g.
	// "LU.rank"); everything else except idle tasks counts as system/daemon
	// activity for the noise detector. Empty disables rank classification.
	RankPrefix string
	// ReadCostPerKB models agent-side processing cost per KiB of profile
	// data each round (default 20us/KB, as KTAUD).
	ReadCostPerKB time.Duration
	// ReadRetries bounds how many times an agent retries a failed procfs
	// read within one round before shipping a gap frame (default 3).
	ReadRetries int
	// ReadBackoff is the sleep between procfs read retries (default
	// Interval/10).
	ReadBackoff time.Duration
	// RecvTimeout bounds each sink receive; a sink that times out checks its
	// peer's health instead of blocking forever (default 4×Interval).
	RecvTimeout time.Duration
	// SendTimeout bounds each agent's frame transmission; an expired send
	// marks the collector link broken and triggers re-election (default
	// 4×Interval).
	SendTimeout time.Duration
	// PeerDownAfter is how many consecutive receive timeouts a sink
	// tolerates before marking its node down and exiting (default 3).
	PeerDownAfter int
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.ReadCostPerKB <= 0 {
		c.ReadCostPerKB = 20 * time.Microsecond
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
	c.Store.defaults()
	c.Detect.defaults()
}

// PerfMon is a deployed monitoring pipeline.
type PerfMon struct {
	cfg     Config
	store   *Store
	tr      *collect.Transport[Frame]
	stopped bool
}

// storeSink adapts the name-keyed store to the transport's node indices.
type storeSink struct {
	*Store
	c *cluster.Cluster
}

func (s storeSink) Drop(idx int)     { s.Store.Drop(s.c.Node(idx).Name) }
func (s storeSink) MarkDown(idx int) { s.Store.MarkDown(s.c.Node(idx).Name) }

// Deploy elects a collector (collect.Elect), connects every other node to it
// over the simulated network, and spawns the per-node agent daemons
// ("kmond") plus one sink task per connection on the collector ("kmon-sink").
// Call before launching the workload; drive the engine afterwards (e.g.
// cluster.RunUntilDone on Tasks()). It fails when the cluster has no live
// node to collect on.
func Deploy(c *cluster.Cluster, cfg Config) (*PerfMon, error) {
	cfg.defaults()
	tr, err := collect.New(c, collect.Spec[Frame]{
		AgentTask:     "kmond",
		SinkTask:      "kmon-sink",
		Decode:        DecodeFrame,
		Last:          func(f Frame) bool { return f.Last },
		CostPerKB:     cfg.ReadCostPerKB,
		RecvTimeout:   cfg.RecvTimeout,
		SendTimeout:   cfg.SendTimeout,
		PeerDownAfter: cfg.PeerDownAfter,
	})
	if err != nil {
		return nil, fmt.Errorf("perfmon: %w", err)
	}
	pm := &PerfMon{cfg: cfg, store: NewStore(cfg.Store), tr: tr}
	tr.Start(storeSink{pm.store, c}, pm.agent)
	return pm, nil
}

// Store returns the collector's time-series store.
func (pm *PerfMon) Store() *Store { return pm.store }

// Collector returns the current collector node index (it changes when the
// elected node dies and the agents fail over).
func (pm *PerfMon) Collector() int { return pm.tr.Collector() }

// Failovers returns how many collector re-elections have happened.
func (pm *PerfMon) Failovers() int { return pm.tr.Failovers() }

// Config returns the deployment configuration (defaults applied).
func (pm *PerfMon) Config() Config { return pm.cfg }

// Tasks returns every task the deployment spawned (agents then sinks);
// RunUntilDone over these drains the pipeline after Stop or bounded Rounds.
// Failover spawns replacement sinks, so re-query after driving the engine.
func (pm *PerfMon) Tasks() []*kernel.Task { return pm.tr.Tasks() }

// Stop asks every agent to perform one final collection round (flagged
// Last) and exit; sinks exit after ingesting the final frame. Drive the
// engine afterwards to drain the pipeline.
func (pm *PerfMon) Stop() { pm.stopped = true }

// groupExcl sums exclusive cycles of one group in a snapshot delta.
func groupExcl(evs []ktau.EventDelta, g ktau.Group) int64 {
	var t int64
	for _, e := range evs {
		if e.Group == g {
			t += e.DExcl
		}
	}
	return t
}

// agentState is the delta-encoding baseline one agent carries between
// rounds. It is split out of the agent loop so the round logic is testable
// without a cluster.
type agentState struct {
	prevKW   ktau.Snapshot
	prevProc map[int]ktau.Snapshot
}

func newAgentState() *agentState {
	return &agentState{prevProc: make(map[int]ktau.Snapshot)}
}

// buildFrame delta-encodes one successfully read round against the baseline
// and advances it. PIDs absent from the current read are evicted from the
// baseline: once a process is gone from procfs it can never produce another
// delta, and keeping its snapshot would grow the map without bound under
// process churn.
func (a *agentState) buildFrame(node string, idx, round, cpus int, last bool,
	kw ktau.Snapshot, procs []ktau.Snapshot) Frame {
	f := Frame{
		Node:    node,
		NodeIdx: idx,
		Round:   round,
		CPUs:    cpus,
		FromTSC: a.prevKW.TSC,
		ToTSC:   kw.TSC,
		Last:    last,
	}
	f.Kernel = ktau.DeltaSnapshot(a.prevKW, kw).Events
	a.prevKW = kw
	next := make(map[int]ktau.Snapshot, len(procs))
	for _, ps := range procs {
		pd := ktau.DeltaSnapshot(a.prevProc[ps.PID], ps)
		next[ps.PID] = ps
		if pd.Empty() {
			continue
		}
		var ticks uint64
		if te := pd.FindDelta(TimerTickEvent); te != nil {
			ticks = te.DCalls
		}
		f.Procs = append(f.Procs, ProcDelta{
			PID:    ps.PID,
			Name:   ps.Name,
			DTotal: pd.TotalDExcl(),
			DIRQ:   groupExcl(pd.Events, ktau.GroupIRQ),
			DBH:    groupExcl(pd.Events, ktau.GroupBH),
			DSched: groupExcl(pd.Events, ktau.GroupSched),
			DTCP:   groupExcl(pd.Events, ktau.GroupTCP),
			DTicks: ticks,
		})
	}
	a.prevProc = next
	return f
}

// gapFrame builds the placeholder for a round whose data stayed unreadable.
// The baseline is left untouched, so the next successful round's deltas
// cover the whole span including this gap.
func (a *agentState) gapFrame(node string, idx, round, cpus int, last bool) Frame {
	return Frame{
		Node:    node,
		NodeIdx: idx,
		Round:   round,
		CPUs:    cpus,
		FromTSC: a.prevKW.TSC,
		ToTSC:   a.prevKW.TSC,
		Last:    last,
		Gap:     true,
	}
}

// agent returns the body of node idx's collection daemon. The agent reads
// through the node's shared procfs instance (so injected procfs faults reach
// it), retries transient errors with bounded backoff, and always emits a
// frame per round — a gap frame when the data stayed unreadable — so the
// sink's Last-frame handshake cannot be skipped.
func (pm *PerfMon) agent(idx int, n *cluster.Node, route *collect.Route[Frame]) func(*kernel.UCtx) {
	h := libktau.Open(n.FS)
	cfg := pm.cfg
	return func(u *kernel.UCtx) {
		st := newAgentState()
		var encBuf []byte // frame-encode scratch, reused every round
		for round := 0; ; round++ {
			if cfg.Rounds > 0 && round >= cfg.Rounds {
				return
			}
			final := pm.stopped
			if !final {
				u.Sleep(cfg.Interval)
				final = pm.stopped // may have been stopped while sleeping
			}
			last := final || (cfg.Rounds > 0 && round == cfg.Rounds-1)

			// The session-less two-call protocol, charged to the agent
			// exactly as KTAUD charges it; transient faults are retried
			// with backoff inside the round.
			var kw ktau.Snapshot
			var procs []ktau.Snapshot
			readOK := false
			for attempt := 0; attempt < cfg.ReadRetries; attempt++ {
				if attempt > 0 {
					u.Sleep(cfg.ReadBackoff)
				}
				u.Syscall("sys_ioctl", func(kc *kernel.KCtx) { kc.Use(2 * time.Microsecond) })
				var errKW, errAll error
				kw, errKW = h.GetProfile(libktau.ScopeKernelWide, 0)
				procs, errAll = h.GetProfiles(libktau.ScopeAll, 0)
				u.Syscall("sys_read", func(kc *kernel.KCtx) { kc.Use(4 * time.Microsecond) })
				if errKW == nil && errAll == nil {
					readOK = true
					break
				}
			}

			var f Frame
			if readOK {
				f = st.buildFrame(n.Name, idx, round, u.Kernel().NumCPUs(), last, kw, procs)
			} else {
				f = st.gapFrame(n.Name, idx, round, u.Kernel().NumCPUs(), last)
			}

			encBuf = AppendFrame(encBuf[:0], f)
			payload := encBuf // link.push copies; safe to reuse next round
			if readOK {
				// User-space processing: snapshot walk + delta encode.
				readBytes := 0
				for _, s := range procs {
					readBytes += 64 + 48*len(s.Events) + 64*len(s.Atomics) + 64*len(s.Mapped)
				}
				u.Compute(time.Duration(readBytes/1024+1) * cfg.ReadCostPerKB)
			}

			route.Ship(u, f, payload)
			if f.Last {
				return
			}
		}
	}
}
