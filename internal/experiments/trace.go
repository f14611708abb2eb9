package experiments

import (
	"fmt"
	"io"
	"time"

	"ktau/internal/analysis"
	"ktau/internal/ktau"
	"ktau/internal/mpisim"
	"ktau/internal/perfmon"
	"ktau/internal/tracepipe"
	"ktau/internal/workload"
)

// wireTraceSources points a tracepipe deployment at the MPI job: each node's
// agent additionally drains the TAU user-level ring and the MPI message
// endpoint log of every rank placed on it (rank r lives on node r % nodes).
// Must run before the engine is driven — it enables the per-rank message
// logs, whose sequence counters must start before any traffic flows.
func wireTraceSources(cfg *tracepipe.Config, spec ChibaSpec, w *mpisim.World) {
	nodes := spec.Ranks / spec.PerNode
	w.EnableMsgLog()
	byNode := make([][]int, nodes)
	for r := 0; r < spec.Ranks; r++ {
		byNode[r%nodes] = append(byNode[r%nodes], r)
	}
	cfg.UserSources = func(idx int) []tracepipe.UserSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.UserSource, 0, len(byNode[idx]))
		for _, r := range byNode[idx] {
			rk := w.Rank(r)
			out = append(out, tracepipe.UserSource{
				PID:  rk.Task.PID(),
				Task: rk.Task.Name(),
				Drain: func() ([]tracepipe.Rec, uint64) {
					// Tau is created when the rank's task first runs; until
					// then there is nothing to drain.
					if rk.Tau == nil {
						return nil, 0
					}
					recs := rk.Tau.DrainTrace()
					conv := make([]tracepipe.Rec, 0, len(recs))
					for _, t := range recs {
						kind := ktau.KindExit
						if t.Entry {
							kind = ktau.KindEntry
						}
						conv = append(conv, tracepipe.Rec{TSC: t.TSC, Name: t.Name, Kind: kind})
					}
					return conv, rk.Tau.TraceLost()
				},
			})
		}
		return out
	}
	cfg.MsgSources = func(idx int) []tracepipe.MsgSource {
		if idx < 0 || idx >= nodes {
			return nil
		}
		out := make([]tracepipe.MsgSource, 0, len(byNode[idx]))
		for _, r := range byNode[idx] {
			rk := w.Rank(r)
			out = append(out, tracepipe.MsgSource{
				Drain: func() []tracepipe.Msg {
					evs := rk.DrainMsgs()
					conv := make([]tracepipe.Msg, 0, len(evs))
					for _, e := range evs {
						conv = append(conv, tracepipe.Msg{
							Src: e.Src, Dst: e.Dst, Tag: e.Tag, Bytes: e.Bytes,
							Seq: e.Seq, Send: e.Send, PID: rk.Task.PID(),
							StartTSC: e.StartTSC, EndTSC: e.EndTSC,
						})
					}
					return conv
				},
			})
		}
		return out
	}
}

// TraceChibaSpec returns the standard configuration for a traced cluster
// run: a fault-injected (DegradedPlan), live-monitored Chiba job with both
// kernel and user trace rings enabled, the profile pipeline and the trace
// pipeline shipping over the same simulated network. Shared by
// RunClusterTrace, the determinism test and the check.sh smoke step so they
// all exercise the same path.
func TraceChibaSpec(ranks int, seed uint64) (ChibaSpec, LiveOptions) {
	spec := DefaultChiba(ranks, 1)
	spec.Seed = seed
	spec.Iters = 4
	spec.TraceCapacity = 4096
	plan := DegradedPlan(ranks, seed)
	opts := LiveOptions{
		PerfMon: perfmon.Config{Interval: 20 * time.Millisecond},
		Faults:  &plan,
		Trace:   &tracepipe.Config{Interval: 25 * time.Millisecond},
	}
	return spec, opts
}

// AdaptiveTraceConfig returns the production ("always-on") trace-pipeline
// configuration: deterministic sampling of every event group at the given
// base rate, backlog throttling at the defaults, and the collector-driven
// focus loop (flagged nodes get full tracing; RunChibaLive wires the
// detector's store and rank prefix automatically).
func AdaptiveTraceConfig(rate float64) *tracepipe.Config {
	return &tracepipe.Config{
		Interval: 25 * time.Millisecond,
		Adaptive: &tracepipe.Adaptive{
			Base: tracepipe.Policy{Groups: ktau.GroupAll, Rate: rate},
		},
		Focus: &tracepipe.FocusConfig{Interval: 100 * time.Millisecond},
	}
}

// AdaptiveChibaSpec is TraceChibaSpec with the adaptive pipeline swapped in,
// throttle thresholds tightened so the fault plan actually drives the state
// machine through degrade/recover transitions. Shared by the adaptive
// determinism test and RunClusterTraceAdaptive.
func AdaptiveChibaSpec(ranks int, seed uint64, rate float64) (ChibaSpec, LiveOptions) {
	spec, opts := TraceChibaSpec(ranks, seed)
	cfg := AdaptiveTraceConfig(rate)
	cfg.Adaptive.ThrottleHigh = 512
	cfg.Adaptive.ThrottleLow = 128
	opts.Trace = cfg
	return spec, opts
}

// ClusterTraceResult is the outcome of one traced cluster run.
type ClusterTraceResult struct {
	Live *LiveResult
	// Records / MsgEvents total what the collector ingested.
	Records   uint64
	MsgEvents uint64
	// SampledOut totals the records the sampling policies discarded (0 on
	// non-adaptive runs).
	SampledOut uint64
	// Flows are the correlated MPI send→recv pairs.
	Flows []tracepipe.Flow
	// Stats are the per-node pipeline self-metrics (loss, drops, backlog).
	Stats []tracepipe.NodeStats
}

func clusterTraceResult(live *LiveResult) *ClusterTraceResult {
	store := live.Trace.Store()
	recs, msgs := store.Totals()
	return &ClusterTraceResult{
		Live:       live,
		Records:    recs,
		MsgEvents:  msgs,
		SampledOut: store.SampledOut(),
		Flows:      store.Flows(),
		Stats:      store.Stats(),
	}
}

// RunClusterTrace executes the standard traced cluster run (fault-injected,
// live-monitored) and returns the merged whole-cluster trace state.
func RunClusterTrace(ranks int, seed uint64) *ClusterTraceResult {
	spec, opts := TraceChibaSpec(ranks, seed)
	return clusterTraceResult(RunChibaLive(spec, opts))
}

// RunClusterTraceAdaptive is RunClusterTrace with the adaptive pipeline:
// sampling at the given base rate, backlog throttling, and the
// collector-driven focus loop.
func RunClusterTraceAdaptive(ranks int, seed uint64, rate float64) *ClusterTraceResult {
	spec, opts := AdaptiveChibaSpec(ranks, seed, rate)
	return clusterTraceResult(RunChibaLive(spec, opts))
}

// WriteTrace writes the merged whole-cluster Chrome trace (Perfetto-loadable).
func (r *ClusterTraceResult) WriteTrace(w io.Writer) error {
	return r.Live.Trace.Store().WriteChromeTrace(w)
}

// Render prints the traced run's summary: collection volume, flow
// correlation, and per-node self-metrics.
func (r *ClusterTraceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Cluster trace: %d records, %d MPI endpoint events, %d correlated flows, %d sampled out\n",
		r.Records, r.MsgEvents, len(r.Flows), r.SampledOut)
	fmt.Fprintf(w, "collector=node%d failovers=%d drained=%v\n",
		r.Live.Trace.Collector(), r.Live.Trace.Failovers(), r.TraceDrainedOK())
	rows := make([][]string, 0, len(r.Stats))
	for _, s := range r.Stats {
		rows = append(rows, []string{
			s.Node,
			fmt.Sprintf("%d", s.Frames),
			fmt.Sprintf("%d", s.KernRecords),
			fmt.Sprintf("%d", s.UserRecords),
			fmt.Sprintf("%d", s.KernRingLost+s.UserRingLost),
			fmt.Sprintf("%d", s.KernSampledOut+s.UserSampledOut),
			fmt.Sprintf("%d", s.ThrottlePeak),
			fmt.Sprintf("%d", s.ReadErrs),
			fmt.Sprintf("%d/%d", s.AgentDroppedFrames, s.SinkDroppedFrames),
			fmt.Sprintf("%d", s.BacklogPeak),
			fmt.Sprintf("%d", s.WireBytes),
			fmt.Sprintf("%v", s.Down),
		})
	}
	analysis.Table(w, []string{
		"Node", "Frames", "KernRecs", "UserRecs", "RingLost", "Sampled", "ThrPk",
		"ReadErrs", "Drops a/s", "BacklogPk", "WireBytes", "Down",
	}, rows)
}

// TraceDrainedOK reports whether the trace pipeline fully drained.
func (r *ClusterTraceResult) TraceDrainedOK() bool { return r.Live.TraceDrained }

// ---- Perturbation study: tracing overhead (the method of Tables 2-4
// applied to the pipeline itself, as STaKTAU does for the profiler) ----

// TraceOverheadRow is one collection configuration's outcome.
type TraceOverheadRow struct {
	Config string
	// Rate is the trace sampling rate in effect (1 = full tracing; 0 for
	// configurations that collect no traces). Adaptive marks the
	// throttle+focus configuration.
	Rate     float64
	Adaptive bool
	Exec     time.Duration
	// SlowPct is slowdown versus the uninstrumented-collection baseline,
	// clamped at 0 as the paper reports.
	SlowPct float64
	// Records / WireBytes count what the deployed pipelines shipped;
	// SampledOut what the sampling policies deliberately discarded.
	Records    uint64
	SampledOut uint64
	WireBytes  uint64
}

// TraceOverheadResult quantifies the observation pipelines' own
// perturbation as a sampling-rate sweep: the same job run with collection
// off, with the profile pipeline only, with full tracing, with fixed-rate
// sampled tracing, and with the full adaptive (sampled + throttled +
// focused) configuration that is meant to stay on in production.
type TraceOverheadResult struct {
	Ranks int
	Rows  []TraceOverheadRow
}

// Row returns the named configuration's row (nil if absent).
func (t *TraceOverheadResult) Row(config string) *TraceOverheadRow {
	for i := range t.Rows {
		if t.Rows[i].Config == config {
			return &t.Rows[i]
		}
	}
	return nil
}

// RunTraceOverhead reruns one Chiba workload across the collection
// configurations and reports the per-layer slowdown. The adaptive row is
// the ROADMAP target: Profile+Trace(adaptive) must stay under 5%.
func RunTraceOverhead(ranks int, seed uint64) *TraceOverheadResult {
	base := DefaultChiba(ranks, 1)
	base.Seed = seed
	base.Iters = 4

	res := &TraceOverheadResult{Ranks: ranks}

	// Off: the job alone — profiling instrumentation present (ProfAll+Tau,
	// as every Chiba run), but nothing collects at runtime.
	off := RunChiba(base)
	res.Rows = append(res.Rows, TraceOverheadRow{Config: "Off", Exec: off.Exec})

	// Profile: perfmon agents ship profile deltas while the job runs.
	prof := RunChibaLive(base, LiveOptions{
		PerfMon: perfmon.Config{Interval: 20 * time.Millisecond},
	})
	var profWire uint64
	for _, n := range prof.LiveNodes {
		profWire += n.WireBytes
	}
	res.Rows = append(res.Rows, TraceOverheadRow{
		Config: "Profile", Exec: prof.Exec, WireBytes: profWire,
	})

	// Traced configurations: ktraced agents drain and ship records
	// alongside the profile pipeline, under one policy per row.
	runTraced := func(name string, rate float64, adaptive bool, tcfg *tracepipe.Config) {
		tspec := base
		tspec.TraceCapacity = 4096
		trace := RunChibaLive(tspec, LiveOptions{
			PerfMon: perfmon.Config{Interval: 20 * time.Millisecond},
			Trace:   tcfg,
		})
		var wire uint64
		for _, n := range trace.LiveNodes {
			wire += n.WireBytes
		}
		store := trace.Trace.Store()
		for _, s := range store.Stats() {
			wire += s.WireBytes
		}
		recs, _ := store.Totals()
		res.Rows = append(res.Rows, TraceOverheadRow{
			Config: name, Rate: rate, Adaptive: adaptive, Exec: trace.Exec,
			Records: recs, SampledOut: store.SampledOut(), WireBytes: wire,
		})
	}

	runTraced("Profile+Trace", 1, false,
		&tracepipe.Config{Interval: 25 * time.Millisecond})
	for _, rate := range []float64{0.25, 0.05} {
		// Fixed-rate rows isolate the sampling effect: throttling disabled
		// (MaxLevel -1), no focus loop.
		runTraced(fmt.Sprintf("Profile+Trace(r=%g)", rate), rate, false,
			&tracepipe.Config{
				Interval: 25 * time.Millisecond,
				Adaptive: &tracepipe.Adaptive{
					Base:     tracepipe.Policy{Groups: ktau.GroupAll, Rate: rate},
					MaxLevel: -1,
				},
			})
	}
	runTraced("Profile+Trace(adaptive)", 0.05, true, AdaptiveTraceConfig(0.05))

	baseExec := res.Rows[0].Exec.Seconds()
	for i := range res.Rows {
		p := analysis.PercentDiff(res.Rows[i].Exec.Seconds(), baseExec)
		if p < 0 {
			p = 0
		}
		res.Rows[i].SlowPct = p
	}
	return res
}

// Render prints the overhead table.
func (t *TraceOverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Trace pipeline perturbation sweep, NPB LU (%d ranks)\n", t.Ranks)
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rate := "-"
		if r.Rate > 0 {
			rate = fmt.Sprintf("%g", r.Rate)
		}
		rows = append(rows, []string{
			r.Config,
			rate,
			fmt.Sprintf("%.3f", r.Exec.Seconds()),
			fmt.Sprintf("%.2f%%", r.SlowPct),
			fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%d", r.SampledOut),
			fmt.Sprintf("%d", r.WireBytes),
		})
	}
	analysis.Table(w, []string{
		"Config", "Rate", "Exec (s)", "%Slowdown", "TraceRecs", "SampledOut", "WireBytes",
	}, rows)
}

// ---- Detection quality under sampling: does the adaptive pipeline still
// finger the right node? ----

// TraceDetectionResult pairs the profile-side detector verdict with the
// trace-side evidence for one collection configuration.
type TraceDetectionResult struct {
	// Flagged is the perfmon OS-noise detector's output (node names).
	Flagged []string
	// SchedRecords counts scheduling records ("schedule", "schedule_vol")
	// per node in the collected trace.
	SchedRecords []uint64
	// TopNode is the node index with the most scheduling records (-1 when
	// the trace is empty).
	TopNode int
	// Records / SampledOut total the collector's ingest accounting.
	Records    uint64
	SampledOut uint64
}

// Fingered reports whether both views agree on the given node: the detector
// flagged it and the trace ranks it first by scheduling records.
func (r *TraceDetectionResult) Fingered(node string, idx int) bool {
	flagged := false
	for _, n := range r.Flagged {
		if n == node {
			flagged = true
		}
	}
	return flagged && r.TopNode == idx
}

// RunTraceDetection plants the §5.1 OS-noise daemon on one node of a
// monitored, traced Chiba run and reports how both views see it under the
// given trace configuration (nil = full tracing). With the adaptive
// configuration this is the end-to-end focus-loop check: the detector flags
// the noisy node, the collector pushes it the full policy, and the trace
// evidence sharpens on exactly the node that deserves it.
func RunTraceDetection(ranks int, seed uint64, noisy int, tcfg *tracepipe.Config) *TraceDetectionResult {
	spec := DefaultChiba(ranks, 1)
	spec.Seed = seed
	spec.Iters = 4
	spec.TraceCapacity = 4096
	if tcfg == nil {
		tcfg = &tracepipe.Config{Interval: 25 * time.Millisecond}
	}
	live := RunChibaLive(spec, LiveOptions{
		PerfMon:    perfmon.Config{Interval: 20 * time.Millisecond},
		NoisyNodes: []int{noisy},
		// The §5.1 anomaly, compressed so several bursts land within the
		// short run (same timing the live-detector tests use).
		Noisy: workload.DaemonSpec{
			Name: "overhead", Period: 50 * time.Millisecond, Busy: 25 * time.Millisecond,
		},
		Trace: tcfg,
	})
	store := live.Trace.Store()
	recs, _ := store.Totals()
	out := &TraceDetectionResult{
		Flagged:      live.Noise.Flagged,
		SchedRecords: store.NodeEventCounts("schedule", "schedule_vol"),
		TopNode:      -1,
		Records:      recs,
		SampledOut:   store.SampledOut(),
	}
	var best uint64
	for i, n := range out.SchedRecords {
		if n > best {
			best, out.TopNode = n, i
		}
	}
	return out
}
