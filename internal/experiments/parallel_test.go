package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ktau/internal/faultsim"
	"ktau/internal/perfmon"
	"ktau/internal/procfs"
)

// liveFingerprint executes one monitored, fault-injected Chiba run and
// returns a byte-exact fingerprint of everything an observer could extract:
// every node's packed /proc/ktau profile blob, the collector store's full
// Prometheus and JSON-lines exports, and the pipeline/fault bookkeeping.
// racks > 1 runs the job on a racked topology, which partitions the runner
// into independently advancing groups.
func liveFingerprint(t *testing.T, racks int, parallel bool, workers int) string {
	t.Helper()
	spec := DefaultChiba(8, 1)
	spec.Seed = 42
	spec.Iters = 4
	spec.Racks = racks
	spec.Parallel = parallel
	spec.Workers = workers
	plan := DegradedPlan(8, 42)

	c, _, tasks := launchChiba(spec)
	defer c.Shutdown()
	inj, err := faultsim.Apply(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := perfmon.Deploy(c, perfmon.Config{
		Interval: 20 * time.Millisecond, RankPrefix: "LU.rank",
	})
	if err != nil {
		t.Fatal(err)
	}
	completed := c.RunUntilDone(tasks, 10*time.Minute)
	pm.Stop()
	drained := c.RunUntilDone(pm.Tasks(), time.Minute)
	c.Settle(5 * time.Millisecond)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%v drained=%v now=%v collector=%d failovers=%d faults=%+v\n",
		completed, drained, c.Now(), pm.Collector(), pm.Failovers(), inj.Stats)
	for _, n := range c.Nodes {
		size, err := n.FS.ProfileSize(procfs.PIDAll)
		if err != nil {
			fmt.Fprintf(&buf, "%s: profile error %v\n", n.Name, err)
			continue
		}
		blob := make([]byte, size)
		nr, err := n.FS.ProfileRead(procfs.PIDAll, blob)
		fmt.Fprintf(&buf, "%s: %d profile bytes err=%v\n%x\n", n.Name, nr, err, blob[:nr])
	}
	if err := pm.Store().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := pm.Store().WriteJSONLines(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestParallelMatchesSerialByteForByte is the tentpole acceptance check: the
// same seed run serially (one worker) and in parallel (several workers, with
// faults injected and the live monitoring pipeline shipping frames across
// nodes) must leave byte-identical /proc/ktau profiles on every node and a
// byte-identical collector store. The flat topology runs every node as its
// own group, one window per epoch; the racked topology (4 racks of 2 nodes) exercises
// the partitioned runner — per-group windows, epoch rendezvous and the
// cross-group inbox — across every interesting worker count, including more
// workers than groups.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	cases := []struct {
		racks   int
		workers []int
	}{
		{0, []int{4}},
		{4, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		serial := liveFingerprint(t, tc.racks, false, 0)
		for _, w := range tc.workers {
			parallel := liveFingerprint(t, tc.racks, true, w)
			if serial == parallel {
				continue
			}
			// Locate the first divergent line for a readable failure.
			a, b := bytes.Split([]byte(serial), []byte("\n")), bytes.Split([]byte(parallel), []byte("\n"))
			for i := 0; i < len(a) && i < len(b); i++ {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("racks=%d workers=%d diverged from serial at line %d:\nserial:   %.200s\nparallel: %.200s",
						tc.racks, w, i+1, a[i], b[i])
				}
			}
			t.Fatalf("racks=%d workers=%d diverged from serial: lengths %d vs %d lines",
				tc.racks, w, len(a), len(b))
		}
	}
}
