package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestClusterTraceSmoke is the acceptance check for the traced cluster run:
// a fault-injected, live-monitored Chiba job must emit a merged cluster
// trace that parses as JSON, spans both layers, and contains correlated MPI
// flow events plus per-node self-metrics.
func TestClusterTraceSmoke(t *testing.T) {
	res := RunClusterTrace(8, 42)
	if !res.Live.Completed {
		t.Fatal("job did not complete")
	}
	if !res.TraceDrainedOK() {
		t.Fatal("trace pipeline did not drain")
	}
	if res.Records == 0 {
		t.Fatal("no trace records collected")
	}
	if len(res.Flows) == 0 {
		t.Fatal("no correlated MPI flows")
	}
	if len(res.Stats) != 8 {
		t.Fatalf("stats for %d nodes, want 8", len(res.Stats))
	}
	kernSeen, userSeen := false, false
	for _, s := range res.Stats {
		if s.KernRecords > 0 {
			kernSeen = true
		}
		if s.UserRecords > 0 {
			userSeen = true
		}
	}
	if !kernSeen || !userSeen {
		t.Fatalf("missing layer in collection: kernel=%v user=%v", kernSeen, userSeen)
	}

	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("cluster trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("no flow events in the cluster trace: %v", phases)
	}
	if phases["B"] == 0 || phases["E"] == 0 {
		t.Fatalf("no spans in the cluster trace: %v", phases)
	}

	// Renders must not panic and must mention the flows.
	var render bytes.Buffer
	res.Render(&render)
	if render.Len() == 0 {
		t.Fatal("empty render")
	}
}

// traceFingerprint executes the standard traced run and fingerprints every
// byte an observer could extract from the trace side: the merged Chrome
// trace, the Prometheus and JSON-lines self-metric exports, and the
// pipeline bookkeeping.
func traceFingerprint(t *testing.T, racks int, parallel bool, workers int) string {
	t.Helper()
	spec, opts := TraceChibaSpec(8, 42)
	spec.Racks = racks
	spec.Parallel = parallel
	spec.Workers = workers
	live := RunChibaLive(spec, opts)
	store := live.Trace.Store()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%v drained=%v tdrained=%v collector=%d tcollector=%d failovers=%d\n",
		live.Completed, live.Drained, live.TraceDrained,
		live.Collector, live.Trace.Collector(), live.Trace.Failovers())
	if err := store.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestClusterTraceParallelMatchesSerial is the tentpole determinism check:
// the same seed run serially and on several workers — with faults injected
// and both pipelines shipping frames across nodes — must produce a
// byte-identical merged cluster trace and byte-identical self-metrics. The
// flat case covers the single-group runner; the racked case runs the trace
// pipeline across partitioned groups at several worker counts.
func TestClusterTraceParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		racks   int
		workers []int
	}{
		{0, []int{4}},
		{4, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		serial := traceFingerprint(t, tc.racks, false, 0)
		for _, w := range tc.workers {
			parallel := traceFingerprint(t, tc.racks, true, w)
			if serial == parallel {
				continue
			}
			a, b := bytes.Split([]byte(serial), []byte("\n")), bytes.Split([]byte(parallel), []byte("\n"))
			for i := 0; i < len(a) && i < len(b); i++ {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("racks=%d workers=%d trace diverged from serial at line %d:\nserial:   %.200s\nparallel: %.200s",
						tc.racks, w, i+1, a[i], b[i])
				}
			}
			t.Fatalf("racks=%d workers=%d trace diverged from serial: lengths %d vs %d lines",
				tc.racks, w, len(a), len(b))
		}
	}
}

// adaptiveFingerprint is traceFingerprint over the adaptive configuration:
// sampling, throttling (tight thresholds so the fault plan drives the state
// machine) and the collector focus loop all active.
func adaptiveFingerprint(t *testing.T, racks int, parallel bool, workers int) string {
	t.Helper()
	spec, opts := AdaptiveChibaSpec(8, 42, 0.25)
	spec.Racks = racks
	spec.Parallel = parallel
	spec.Workers = workers
	live := RunChibaLive(spec, opts)
	store := live.Trace.Store()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%v drained=%v tdrained=%v collector=%d tcollector=%d failovers=%d\n",
		live.Completed, live.Drained, live.TraceDrained,
		live.Collector, live.Trace.Collector(), live.Trace.Failovers())
	if err := store.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAdaptiveTraceParallelMatchesSerial extends the determinism guarantee
// to the adaptive pipeline: sampling draws, throttle transitions and focus
// policy pushes are all functions of simulated state, so the same seed must
// produce a byte-identical merged trace at any worker count — on the flat
// topology and with the partitioned runner active.
func TestAdaptiveTraceParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		racks   int
		workers []int
	}{
		{0, []int{4}},
		{4, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		serial := adaptiveFingerprint(t, tc.racks, false, 0)
		for _, w := range tc.workers {
			parallel := adaptiveFingerprint(t, tc.racks, true, w)
			if serial == parallel {
				continue
			}
			a, b := bytes.Split([]byte(serial), []byte("\n")), bytes.Split([]byte(parallel), []byte("\n"))
			for i := 0; i < len(a) && i < len(b); i++ {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("racks=%d workers=%d adaptive trace diverged from serial at line %d:\nserial:   %.200s\nparallel: %.200s",
						tc.racks, w, i+1, a[i], b[i])
				}
			}
			t.Fatalf("racks=%d workers=%d adaptive trace diverged from serial: lengths %d vs %d lines",
				tc.racks, w, len(a), len(b))
		}
	}
}

// TestAdaptiveClusterTrace checks the adaptive run end to end: sampling
// actually discards records, the tightened thresholds drive the throttle,
// and flow correlation survives (messages are never sampled).
func TestAdaptiveClusterTrace(t *testing.T) {
	full := RunClusterTrace(8, 42)
	res := RunClusterTraceAdaptive(8, 42, 0.25)
	if !res.Live.Completed || !res.TraceDrainedOK() {
		t.Fatal("adaptive run did not complete and drain")
	}
	if res.SampledOut == 0 {
		t.Fatal("sampling at rate 0.25 discarded nothing")
	}
	if res.Records == 0 || res.Records >= full.Records {
		t.Fatalf("adaptive records = %d, want 0 < n < full %d", res.Records, full.Records)
	}
	if res.MsgEvents != full.MsgEvents {
		t.Fatalf("msg events = %d, want %d (messages must never be sampled)", res.MsgEvents, full.MsgEvents)
	}
	if len(res.Flows) == 0 {
		t.Fatal("no correlated flows in the adaptive trace")
	}
	var thr uint32
	for _, s := range res.Stats {
		if s.ThrottlePeak > thr {
			thr = s.ThrottlePeak
		}
	}
	if thr == 0 {
		t.Fatal("tightened thresholds never engaged the throttle")
	}
}

// TestTraceDetectionUnderSampling is the detection-quality check the
// adaptive design must not break: with the §5.1 daemon planted on one node,
// the online detector must flag it under full AND adaptive collection, and
// under adaptive collection the focus loop must make the flagged node the
// top scheduling-record node in the trace itself — sampling sharpens the
// evidence instead of washing it out.
func TestTraceDetectionUnderSampling(t *testing.T) {
	const noisy = 2
	full := RunTraceDetection(16, 1, noisy, nil)
	adap := RunTraceDetection(16, 1, noisy, AdaptiveTraceConfig(0.05))
	name := fmt.Sprintf("ccn%d", noisy)

	flagged := func(r *TraceDetectionResult) bool {
		for _, n := range r.Flagged {
			if n == name {
				return true
			}
		}
		return false
	}
	if !flagged(full) {
		t.Fatalf("full trace: detector missed %s: flagged=%v", name, full.Flagged)
	}
	if !flagged(adap) {
		t.Fatalf("adaptive trace: detector missed %s: flagged=%v", name, adap.Flagged)
	}
	if !adap.Fingered(name, noisy) {
		t.Fatalf("adaptive trace does not finger %s: top=%d sched=%v",
			name, adap.TopNode, adap.SchedRecords)
	}
	if adap.SampledOut == 0 {
		t.Fatal("adaptive detection run sampled nothing out")
	}
	if adap.Records >= full.Records {
		t.Fatalf("adaptive collected %d records, not fewer than full %d", adap.Records, full.Records)
	}
}

// TestTraceOverhead pins the perturbation study: the overhead sweep must
// carry the six collection configurations, the sampled rows must account
// for their losses, and the adaptive configuration must not cost more than
// full tracing.
func TestTraceOverhead(t *testing.T) {
	res := RunTraceOverhead(8, 7)
	want := []string{
		"Off", "Profile", "Profile+Trace",
		"Profile+Trace(r=0.25)", "Profile+Trace(r=0.05)", "Profile+Trace(adaptive)",
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i].Config != w {
			t.Fatalf("row %d = %q, want %q", i, res.Rows[i].Config, w)
		}
	}
	if res.Rows[0].SlowPct != 0 {
		t.Fatalf("baseline slowdown = %v, want 0", res.Rows[0].SlowPct)
	}
	full, adaptive := res.Row("Profile+Trace"), res.Row("Profile+Trace(adaptive)")
	if full == nil || adaptive == nil {
		t.Fatal("Row lookup failed")
	}
	if full.Records == 0 {
		t.Fatal("full trace row collected no records")
	}
	if full.SampledOut != 0 {
		t.Fatalf("full trace row sampled %d records out, want 0", full.SampledOut)
	}
	if !adaptive.Adaptive || adaptive.Rate != 0.05 {
		t.Fatalf("adaptive row misconfigured: %+v", adaptive)
	}
	if adaptive.SampledOut == 0 {
		t.Fatal("adaptive row sampled nothing out")
	}
	if adaptive.Records == 0 || adaptive.Records >= full.Records {
		t.Fatalf("adaptive records = %d, want 0 < n < full %d", adaptive.Records, full.Records)
	}
	if adaptive.SlowPct > full.SlowPct {
		t.Fatalf("adaptive slowdown %.2f%% exceeds full trace %.2f%%", adaptive.SlowPct, full.SlowPct)
	}
	for _, r := range res.Rows {
		if r.Exec <= 0 {
			t.Fatalf("row %s has non-positive exec time", r.Config)
		}
		if r.SlowPct < 0 {
			t.Fatalf("row %s slowdown negative (must be clamped)", r.Config)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
