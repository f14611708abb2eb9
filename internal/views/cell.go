package views

import (
	"encoding/json"
	"fmt"

	"ktau/internal/experiments"
	"ktau/internal/harness"
	"ktau/internal/servesim"
)

// BuildCell renders one harness cell as a full cross-layer report: the
// cell's identity, metrics and fingerprints, then the richest view the
// cell's experiment type supports (live breakdown, fault comparison, serve
// tail attribution, trace self-metrics, perturbation rows). Cells whose Raw
// payload is absent (e.g. reloaded from JSON) fall back to the metric
// tables plus the captured text render.
func BuildCell(c *harness.CellResult) *Report {
	r := &Report{Title: "KTAU cell report: " + c.Name}
	s := r.AddSection("Cell")
	s.AddFact("cell", c.Name)
	s.AddFact("status", c.Status)
	if c.Err != "" {
		s.AddFact("error", c.Err)
	}
	if data, err := json.Marshal(c.Params); err == nil {
		s.AddFact("params", string(data))
	}
	if t := metricsTable("Metrics (virtual-time, deterministic)", c.Metrics, nil, nil); t != nil {
		s.Tables = append(s.Tables, t)
	}
	if t := fingerprintTable(c.Fingerprints, nil); t != nil {
		s.Tables = append(s.Tables, t)
	}

	switch raw := c.Raw.(type) {
	case *experiments.LiveResult:
		appendReport(r, BuildLive(raw))
	case *experiments.FaultStudy:
		appendReport(r, BuildFaults(raw))
	case *experiments.ServeResult:
		appendReport(r, BuildServe(raw))
	case *experiments.ClusterTraceResult:
		appendReport(r, BuildTrace(raw))
	case *experiments.TraceOverheadResult:
		appendReport(r, BuildTraceOverhead(raw))
	default:
		if c.Text != "" {
			txt := r.AddSection("Captured output")
			txt.Pre = append(txt.Pre, c.Text)
		}
	}
	return r
}

// BuildText wraps a plain experiment render (the table/figure experiments)
// in a report shell.
func BuildText(title, text string) *Report {
	r := &Report{Title: title}
	s := r.AddSection("Output")
	s.Pre = append(s.Pre, text)
	return r
}

// appendReport grafts src's sections onto dst.
func appendReport(dst, src *Report) {
	dst.Sections = append(dst.Sections, src.Sections...)
}

// BuildFaults renders the fault study: the same monitored run clean,
// degraded and with a collector crash, side by side, with the noise overlay
// of the degraded phase (the view that must stay truthful under faults).
func BuildFaults(st *experiments.FaultStudy) *Report {
	r := &Report{
		Title:    "KTAU fault study",
		Subtitle: fmt.Sprintf("monitored LU run at %d ranks: clean vs degraded vs collector crash", st.Ranks),
	}
	s := r.AddSection("Phase comparison")
	t := &Table{
		Caption: "The same job under three fault plans",
		Head: []string{"phase", "exec", "completed", "frames", "drops",
			"failovers", "missed", "gaps", "down nodes"},
	}
	execBars := &BarPanel{Caption: "Execution time by phase"}
	for _, ph := range []struct {
		name string
		res  *experiments.LiveResult
	}{{"clean", st.Clean}, {"degraded", st.Degraded}, {"crash", st.Crash}} {
		var missed, gaps, down int
		for _, info := range ph.res.Store.Nodes() {
			missed += info.Missed
			gaps += info.Gaps
			if info.Down {
				down++
			}
		}
		t.Rows = append(t.Rows, []string{
			ph.name, FmtDur(ph.res.Exec), fmt.Sprintf("%v", ph.res.Completed),
			FmtCount(ph.res.Store.Frames()), FmtCount(ph.res.Store.Drops()),
			FmtCount(ph.res.Failovers), FmtCount(missed), FmtCount(gaps), FmtCount(down),
		})
		execBars.Bars = append(execBars.Bars, Bar{
			Label: ph.name, Value: float64(ph.res.Exec), Text: FmtDur(ph.res.Exec),
		})
	}
	s.Tables = append(s.Tables, t)
	s.Bars = append(s.Bars, execBars)
	if st.Clean.Exec > 0 {
		s.AddFactf("degraded slowdown", "%.2fx vs clean",
			float64(st.Degraded.Exec)/float64(st.Clean.Exec))
	}
	if inj := st.Degraded.Injector; inj != nil {
		s.AddFactf("degraded fault plan", "%d losses, %d delays, %d partitioned, %d slowdowns, %d stalls, %d procfs errors",
			inj.Stats.Losses, inj.Stats.Delays, inj.Stats.Partitioned,
			inj.Stats.Slowdowns, inj.Stats.Stalls, inj.Stats.ProcfsErrors)
	}
	noiseOverlay(r.AddSection("Degraded-phase noise overlay"), st.Degraded.Noise)
	pipelineHealth(r.AddSection("Crash-phase collection pipeline"), st.Crash.Store)
	return r
}

// BuildServe renders the multi-tenant serving run: tenant latency
// distributions, then one tail-attribution panel per tenant explaining what
// the kernel of its worst node was doing during the recorded tail windows.
func BuildServe(res *experiments.ServeResult) *Report {
	s0 := &res.Spec
	r := &Report{
		Title: "KTAU serve report: multi-tenant tail attribution",
		Subtitle: fmt.Sprintf("%d nodes (%d client, %d server), %d tenants, seed %d",
			s0.Nodes, len(s0.Serve.ClientNodes), len(s0.Serve.ServerNodes),
			len(s0.Serve.Tenants), s0.Seed),
	}
	sum := r.AddSection("Serving summary")
	var totalOK uint64
	t := &Table{
		Caption: "Per-tenant latency distribution (cluster-wide)",
		Head: []string{"tenant", "arrivals", "ok", "drops", "lost",
			"p50", "p99", "p999", "max", "worst node"},
	}
	for _, ts := range res.Tenants {
		totalOK += ts.OK
		worst := "-"
		if ts.WorstNode >= 0 {
			worst = fmt.Sprintf("ccn%d", ts.WorstNode)
		}
		t.Rows = append(t.Rows, []string{
			ts.Name, FmtCount(ts.Arrived), FmtCount(ts.OK), FmtCount(ts.Drops),
			FmtCount(ts.Lost), FmtDur(ts.P50), FmtDur(ts.P99), FmtDur(ts.P999),
			FmtDur(ts.Max), worst,
		})
	}
	sum.Tables = append(sum.Tables, t)
	sum.AddFactf("throughput", "%.0f req/s completed over the %v load window",
		float64(totalOK)/s0.Serve.Duration.Seconds(), s0.Serve.Duration)
	sum.AddFactf("pipeline", "%d frames, %d dropped, %d failovers, collector ccn%d",
		res.Store.Frames(), res.Store.Drops(), res.Failovers, res.Collector)
	if s0.RogueNode >= 0 {
		verdict := "NOT fingered"
		if res.RogueFingered {
			verdict = "fingered as the top competing process on the worst tail node"
		}
		sum.AddFactf("planted rogue", "%s on ccn%d: %s", s0.Rogue.Name, s0.RogueNode, verdict)
	}
	if res.LeakedConns != 0 {
		sum.AddFactf("WARNING", "%d connection endpoints leaked", res.LeakedConns)
	}
	if !res.Completed {
		sum.Paras = append(sum.Paras, "WARNING: fleet did not drain before the deadline.")
	}

	for _, ts := range res.Tenants {
		if ts.WorstNode < 0 {
			continue
		}
		sec := r.AddSection(fmt.Sprintf("Tail attribution: tenant %s on ccn%d", ts.Name, ts.WorstNode))
		tailPanel(sec, &ts, res.HZ)
	}
	return r
}

// tailPanel explains one tenant's worst-node tail: which kernel groups
// burned the cycles inside the tail windows, and which competing processes
// occupied the CPUs.
func tailPanel(s *Section, ts *experiments.TenantServe, hz int64) {
	a := &ts.Attr
	s.AddFactf("worst-node tail", "p99 %s, p999 %s over %d tail windows (%d kernel rounds, %s monitored)",
		FmtDur(ts.WorstP99), FmtDur(ts.WorstP999), a.Windows, len(a.Rounds),
		FmtDur(CyclesDur(a.Wall, hz)))
	if len(a.Groups) > 0 {
		gb := &BarPanel{Caption: "Kernel activity by KTAU group inside the tail windows"}
		for _, g := range a.Groups {
			gb.Bars = append(gb.Bars, Bar{
				Label: g.Group.String(), Value: g.Share,
				Text: fmt.Sprintf("%s (%s)", FmtPct(g.Share), FmtDur(CyclesDur(g.Excl, hz))),
			})
		}
		s.Bars = append(s.Bars, gb)
	}
	if len(a.Events) > 0 {
		et := &Table{
			Caption: "Hottest kernel routines in the tail windows",
			Head:    []string{"routine", "group", "calls", "excl cycles"},
		}
		for _, e := range a.Events {
			et.Rows = append(et.Rows, []string{
				e.Name, e.Group.String(), FmtCount(e.Calls), FmtCount(e.Excl),
			})
		}
		s.Tables = append(s.Tables, et)
	}
	if len(a.Daemons) > 0 {
		dt := &Table{
			Caption: "Competing processes during the tail windows",
			Head:    []string{"process", "pid", "ticks", "cycles", "capacity share"},
		}
		for _, d := range a.Daemons {
			dt.Rows = append(dt.Rows, []string{
				d.Name, FmtCount(d.PID), FmtCount(d.Ticks), FmtCount(d.Cycles),
				FmtPct(d.CapacityShare),
			})
		}
		s.Tables = append(s.Tables, dt)
	}
	if top := topDaemon(a); top != nil {
		s.AddFactf("top competitor", "%s (pid %d) held %s of the node's capacity",
			top.Name, top.PID, FmtPct(top.CapacityShare))
	}
}

// topDaemon mirrors Attribution.TopDaemon without mutating shared state.
func topDaemon(a *servesim.Attribution) *servesim.DaemonShare {
	if len(a.Daemons) == 0 {
		return nil
	}
	return &a.Daemons[0]
}

// BuildTrace renders a traced cluster run: collection volume, flow
// correlation, and per-node self-metrics, plus the underlying live view.
func BuildTrace(res *experiments.ClusterTraceResult) *Report {
	r := &Report{
		Title: "KTAU cluster trace report",
		Subtitle: fmt.Sprintf("%s, %d ranks, seed %d",
			res.Live.Spec.Name(), res.Live.Spec.Ranks, res.Live.Spec.Seed),
	}
	s := r.AddSection("Trace collection")
	s.AddFactf("volume", "%d records, %d MPI endpoint events, %d correlated flows, %d sampled out",
		res.Records, res.MsgEvents, len(res.Flows), res.SampledOut)
	s.AddFactf("collector node", "%d (failovers %d, drained %v)",
		res.Live.Trace.Collector(), res.Live.Trace.Failovers(), res.TraceDrainedOK())
	traceStatsTable(s, res.Stats)
	noiseOverlay(r.AddSection("OS-noise overlay"), res.Live.Noise)
	pipelineHealth(r.AddSection("Profile collection pipeline"), res.Live.Store)
	return r
}

// BuildTraceOverhead renders the pipeline-perturbation sweep: per
// configuration, the slowdown against the uninstrumented baseline and what
// the pipelines shipped for that price.
func BuildTraceOverhead(res *experiments.TraceOverheadResult) *Report {
	r := &Report{
		Title:    "KTAU trace-overhead report",
		Subtitle: fmt.Sprintf("collection-configuration sweep at %d ranks", res.Ranks),
	}
	s := r.AddSection("Perturbation by collection configuration")
	t := &Table{
		Caption: "Slowdown vs uninstrumented collection",
		Head: []string{"configuration", "rate", "exec", "slowdown",
			"records", "sampled out", "wire bytes"},
	}
	slow := &BarPanel{Caption: "Slowdown (%)"}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{
			row.Config, FmtFloat(row.Rate), FmtDur(row.Exec),
			fmt.Sprintf("%.2f%%", row.SlowPct), FmtCount(row.Records),
			FmtCount(row.SampledOut), FmtCount(row.WireBytes),
		})
		slow.Bars = append(slow.Bars, Bar{
			Label: row.Config, Value: row.SlowPct,
			Text: fmt.Sprintf("%.2f%%", row.SlowPct),
		})
	}
	s.Tables = append(s.Tables, t)
	s.Bars = append(s.Bars, slow)
	return r
}

// metricsTable renders a metric map sorted by key. When base is non-nil the
// table carries the baseline value and the delta inline; tol supplies
// per-metric tolerance bands for the verdict column.
func metricsTable(caption string, m, base map[string]float64, tol map[string]float64) *Table {
	if len(m) == 0 && len(base) == 0 {
		return nil
	}
	keys := map[string]bool{}
	for k := range m {
		keys[k] = true
	}
	for k := range base {
		keys[k] = true
	}
	t := &Table{Caption: caption, Head: []string{"metric", "value"}}
	if base != nil {
		t.Head = append(t.Head, "baseline", "delta", "verdict")
	}
	for _, k := range sortedKeys(keys) {
		v, okV := m[k]
		row := []string{k, FmtFloat(v)}
		if !okV {
			row[1] = "-"
		}
		if base != nil {
			want, okW := base[k]
			switch {
			case !okW:
				row = append(row, "-", "-", "NOT IN BASELINE")
			case !okV:
				row = append(row, FmtFloat(want), "-", "MISSING")
			default:
				delta := v - want
				verdict := "ok"
				if d := delta; d < 0 {
					d = -d
					if d > tol[k] {
						verdict = fmt.Sprintf("OUTSIDE ±%s", FmtFloat(tol[k]))
					}
				} else if d > tol[k] {
					verdict = fmt.Sprintf("OUTSIDE ±%s", FmtFloat(tol[k]))
				}
				row = append(row, FmtFloat(want), fmtDelta(delta), verdict)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fmtDelta renders a baseline delta with an explicit sign.
func fmtDelta(d float64) string {
	if d == 0 {
		return "0"
	}
	if d > 0 {
		return "+" + FmtFloat(d)
	}
	return FmtFloat(d)
}

// fingerprintTable renders the fingerprint map sorted by key; with a
// baseline, each digest carries a match verdict.
func fingerprintTable(fps, base map[string]string) *Table {
	if len(fps) == 0 && len(base) == 0 {
		return nil
	}
	keys := map[string]bool{}
	for k := range fps {
		keys[k] = true
	}
	for k := range base {
		keys[k] = true
	}
	t := &Table{
		Caption: "Fingerprints (SHA-256 of the run's observable byte streams)",
		Head:    []string{"stream", "digest"},
	}
	if base != nil {
		t.Head = append(t.Head, "verdict")
	}
	for _, k := range sortedKeys(keys) {
		v, okV := fps[k]
		row := []string{k, ShortDigest(v)}
		if !okV {
			row[1] = "-"
		}
		if base != nil {
			want, okW := base[k]
			switch {
			case !okW:
				row = append(row, "NOT IN BASELINE")
			case !okV:
				row = append(row, "MISSING")
			case v == want:
				row = append(row, "match")
			default:
				row = append(row, "MISMATCH (baseline "+ShortDigest(want)+")")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
