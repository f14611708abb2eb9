package tracepipe

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/tcpsim"
)

// runCollectorCrash boots a traced cluster with a tiny TCP send window (so a
// link to a dead collector backs up and the send times out within a few
// rounds), crashes the collector node mid-run and drains the pipeline. It
// returns the pipeline and node 0's cycle counter at the crash instant.
func runCollectorCrash(t *testing.T, seed uint64) (*Pipeline, int64) {
	t.Helper()
	// The window must stay above the delayed-ack threshold (2×MTU) or every
	// healthy flow deadlocks; 4 KiB is the smallest round figure above it.
	tcp := tcpsim.DefaultParams()
	tcp.SndBuf = 4 * 1024
	c := cluster.New(cluster.Config{
		Nodes: cluster.UniformNodes("node", testNodes),
		Ktau: ktau.Options{Compiled: ktau.GroupAll, Boot: ktau.GroupAll,
			Mapping: true, RetainExited: true, TraceCapacity: 1024},
		TCP:  tcp,
		Seed: seed,
	})
	t.Cleanup(c.Shutdown)
	for i, n := range c.Nodes {
		n.K.Spawn(fmt.Sprintf("app.rank%d", i), func(u *kernel.UCtx) {
			for {
				u.Compute(2 * time.Millisecond)
				u.Sleep(time.Millisecond)
			}
		}, kernel.SpawnOpts{})
	}
	tp, err := Deploy(c, Config{Interval: 20 * time.Millisecond, Rounds: 25})
	if err != nil {
		t.Fatal(err)
	}
	var crashTSC int64
	c.Node(0).Eng.At(c.Now().Add(150*time.Millisecond), func() {
		crashTSC = c.Node(0).K.Cycles()
		c.Node(0).K.Crash()
	})

	// Failover spawns replacement sinks mid-run, so completion only counts
	// on a freshly queried task list.
	for i := 0; i < 5; i++ {
		done := c.RunUntilDone(tp.Tasks(), time.Minute)
		settled := true
		for _, task := range tp.Tasks() {
			if !task.Exited() && !task.Kernel().Crashed() {
				settled = false
			}
		}
		if done && settled {
			return tp, crashTSC
		}
	}
	t.Fatal("trace pipeline never drained after the collector crash")
	return nil, 0
}

func TestCollectorCrashFailsOver(t *testing.T) {
	tp, crashTSC := runCollectorCrash(t, 7)
	if tp.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", tp.Failovers())
	}
	// Uniform nodes: the election picks the lowest-index survivor.
	if tp.Collector() != 1 {
		t.Fatalf("collector after failover = %d, want 1", tp.Collector())
	}
	stats := tp.Store().Stats()
	if !stats[0].Down {
		t.Fatalf("dead collector not marked down: %+v", stats[0])
	}
	// Every survivor's records from after the crash reached the new
	// collector and the merged timeline.
	late := make(map[int]bool)
	for _, e := range tp.Store().Merged() {
		if e.NodeIdx != 0 && e.TSC > crashTSC {
			late[e.NodeIdx] = true
		}
	}
	for i := 1; i < testNodes; i++ {
		if !late[i] {
			t.Errorf("node%d has no post-crash records in the merged trace", i)
		}
	}
}

func TestCollectorCrashDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		tp, _ := runCollectorCrash(t, 11)
		if err := tp.Store().WriteChromeTrace(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("same seed produced different Chrome traces under a collector crash")
	}
}
