package tracepipe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ktau/internal/ktau"
)

// referenceMerged is the merge by definition: every stream concatenated in
// key order, then stable-sorted by TSC.
func referenceMerged(c *Collector) []ClusterEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ClusterEvent
	for _, key := range c.sortedStreamKeys() {
		st := c.streams[key]
		for _, r := range st.recs {
			out = append(out, ClusterEvent{
				NodeIdx: key.NodeIdx, Node: c.nodes[key.NodeIdx].name,
				PID: key.PID, Task: st.task, Kernel: key.Kernel,
				Name: r.Name, Kind: r.Kind, Val: r.Val, TSC: r.TSC,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TSC < out[j].TSC })
	return out
}

// refChromeEvent is the Chrome event as encoding/json sees it; the export
// must produce exactly the bytes a json.Encoder writes for a slice of these.
type refChromeEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Phase  string         `json:"ph"`
	TS     float64        `json:"ts"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	ID     int            `json:"id,omitempty"`
	BindPt string         `json:"bp,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// referenceChromeTrace renders c's trace through encoding/json, from
// referenceMerged and Flows.
func referenceChromeTrace(c *Collector, w io.Writer) error {
	merged := referenceMerged(c)
	flows := c.Flows()
	var base int64
	haveBase := false
	for _, e := range merged {
		if !haveBase || e.TSC < base {
			base, haveBase = e.TSC, true
		}
	}
	for _, f := range flows {
		if !haveBase || f.SendTSC < base {
			base, haveBase = f.SendTSC, true
		}
	}
	hz := c.hz
	if hz <= 0 {
		hz = 1
	}
	toUS := func(tsc int64) float64 { return float64(tsc-base) / float64(hz) * 1e6 }

	var events []refChromeEvent
	c.mu.Lock()
	namedNode := map[int]bool{}
	for _, key := range c.sortedStreamKeys() {
		if !namedNode[key.NodeIdx] {
			namedNode[key.NodeIdx] = true
			events = append(events,
				refChromeEvent{Name: "process_name", Phase: "M", PID: key.NodeIdx,
					Args: map[string]any{"name": c.nodes[key.NodeIdx].name}},
				refChromeEvent{Name: "process_sort_index", Phase: "M", PID: key.NodeIdx,
					Args: map[string]any{"sort_index": key.NodeIdx}})
		}
		label := c.streams[key].task
		if key.Kernel {
			label += " (kernel)"
		}
		events = append(events, refChromeEvent{Name: "thread_name", Phase: "M",
			PID: key.NodeIdx, TID: trackID(key.PID, key.Kernel), Args: map[string]any{"name": label}})
	}
	c.mu.Unlock()
	for _, e := range merged {
		cat := "user"
		if e.Kernel {
			cat = "kernel"
		}
		ev := refChromeEvent{Name: e.Name, Cat: cat, TS: toUS(e.TSC), PID: e.NodeIdx, TID: trackID(e.PID, e.Kernel)}
		switch e.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			ev.Args = map[string]any{"value": e.Val}
		default:
			continue
		}
		events = append(events, ev)
	}
	for i, f := range flows {
		events = append(events,
			refChromeEvent{Name: "MPI_msg", Cat: "mpi", Phase: "s", TS: toUS(f.SendTSC),
				PID: f.SrcNode, TID: trackID(f.SrcPID, false), ID: i + 1,
				Args: map[string]any{"src": f.Src, "dst": f.Dst, "tag": f.Tag, "bytes": f.Bytes}},
			refChromeEvent{Name: "MPI_msg", Cat: "mpi", Phase: "f", BindPt: "e", TS: toUS(f.RecvTSC),
				PID: f.DstNode, TID: trackID(f.DstPID, false), ID: i + 1})
	}
	if events == nil {
		events = []refChromeEvent{}
	}
	return json.NewEncoder(w).Encode(events)
}

// sameChromeTrace fails t unless the export and the reference encoder write
// the same bytes for c.
func sameChromeTrace(t testing.TB, c *Collector) {
	t.Helper()
	var got, want bytes.Buffer
	if err := c.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceChromeTrace(c, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("chrome trace differs from the encoding/json reference at byte %d:\n got  %q\n want %q",
			i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// randomCollector ingests frames whose streams break every assumption a
// merge could lean on: records out of TSC order within a stream, TSCs
// shared across streams, streams that never carry a record, and nodes that
// ship in any order.
func randomCollector(rng *rand.Rand) *Collector {
	nodes := 1 + rng.Intn(4)
	c := NewCollector(nodes, 1+rng.Int63n(2_000_000_000))
	names := []string{"sys_read", "do_IRQ[timer]", "scheduler_tick", "MPI_Send()"}
	for f := 0; f < 1+rng.Intn(8); f++ {
		idx := rng.Intn(nodes + 1) // may name a node the collector was not sized for
		fr := Frame{NodeIdx: idx, Node: fmt.Sprintf("n%d", idx)}
		for s := 0; s < rng.Intn(5); s++ {
			st := Stream{PID: 1 + rng.Intn(3), Kernel: rng.Intn(2) == 0, Task: fmt.Sprintf("t%d", rng.Intn(3))}
			for r := 0; r < rng.Intn(30); r++ {
				st.Recs = append(st.Recs, Rec{
					TSC:  int64(rng.Intn(40)), // small range: many equal TSCs
					Name: names[rng.Intn(len(names))],
					Kind: ktau.RecordKind(rng.Intn(5)), // includes kinds the export skips
					Val:  rng.Int63n(1000) - 500,
				})
			}
			fr.Streams = append(fr.Streams, st)
		}
		for m := 0; m < rng.Intn(4); m++ {
			fr.Msgs = append(fr.Msgs, Msg{Src: rng.Intn(3), Dst: rng.Intn(3), Tag: rng.Intn(2),
				Seq: uint64(rng.Intn(3)), Send: rng.Intn(2) == 0, PID: 1 + rng.Intn(3),
				EndTSC: int64(rng.Intn(40))})
		}
		c.Ingest(fr, 0)
	}
	return c
}

// TestMergedMatchesStableSort pins the k-way merge to its definition (a
// stable TSC sort of the key-ordered concatenation), and the streaming
// Chrome export to the encoding/json document built from that merge.
func TestMergedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		c := randomCollector(rng)
		got, want := c.Merged(), referenceMerged(c)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("collector %d: merge differs from stable sort:\n got  %+v\n want %+v", i, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("collector %d: Merged cap %d for %d events, want exact size", i, cap(got), len(got))
		}
		sameChromeTrace(t, c)
	}
}

// TestMergedLeavesStreamsUnsorted checks that ordering an out-of-order
// stream for the merge works on a copy: the collector's records keep their
// ring order.
func TestMergedLeavesStreamsUnsorted(t *testing.T) {
	c := NewCollector(1, 1000)
	recs := []Rec{{TSC: 5, Name: "a", Kind: ktau.KindEntry}, {TSC: 3, Name: "b", Kind: ktau.KindEntry}}
	c.Ingest(Frame{Streams: []Stream{{PID: 1, Kernel: true, Recs: recs}}}, 0)
	if m := c.Merged(); m[0].TSC != 3 || m[1].TSC != 5 {
		t.Fatalf("merge not TSC-ordered: %+v", m)
	}
	st := c.streams[streamKey{PID: 1, Kernel: true}]
	if st.recs[0].TSC != 5 || st.recs[1].TSC != 3 {
		t.Fatalf("merge reordered the stored stream: %+v", st.recs)
	}
}

// TestChromeTraceHostileNames exports names, tasks and node names that need
// JSON escaping — HTML-significant characters, quotes, backslashes, control
// characters, the JavaScript line separators and invalid UTF-8 — and
// requires encoding/json's exact bytes.
func TestChromeTraceHostileNames(t *testing.T) {
	hostile := []string{
		"<script>&amp;</script>", `do_IRQ["timer"]`, `C:\kernel\path`,
		"tab\tnl\ncr\rnul\x00bell\x07esc\x1b", "line\u2028para\u2029", "bad\xffutf8\xc3",
		"", "plain",
	}
	c := NewCollector(len(hostile), 450_000_000)
	for i, name := range hostile {
		st := Stream{PID: 10 + i, Task: name, Kernel: i%2 == 1}
		for j, kind := range []ktau.RecordKind{ktau.KindEntry, ktau.KindAtomic, ktau.KindExit} {
			st.Recs = append(st.Recs, Rec{TSC: int64(1000*i + 10*j), Name: name, Kind: kind, Val: int64(-i)})
		}
		c.Ingest(Frame{Node: name, NodeIdx: i, Streams: []Stream{st}}, 0)
	}
	sameChromeTrace(t, c)
}

// TestChromeTraceFloatEdges drives ts through encoding/json's float format
// switches: exactly 0, below 1e-6 (exponent form with a trimmed e-07), and
// at or above 1e21 (exponent form with a positive exponent).
func TestChromeTraceFloatEdges(t *testing.T) {
	for _, tc := range []struct {
		hz   int64
		tscs []int64
	}{
		{hz: 1, tscs: []int64{0, 0}},                                     // ts 0
		{hz: 1 << 62, tscs: []int64{0, 1, 3, 1 << 20}},                   // ts < 1e-6
		{hz: 1_000_000_000_000_000_000, tscs: []int64{0, 1, 7}},          // ts ~1e-12
		{hz: 1, tscs: []int64{0, 1_000_000_000_000_000, 1 << 62}},        // ts >= 1e21
		{hz: 1_000, tscs: []int64{-5, 999_999_999_999_999, 1 << 62 / 3}}, // 1e18 ≤ ts < 1e21
	} {
		c := NewCollector(1, tc.hz)
		var recs []Rec
		for _, tsc := range tc.tscs {
			recs = append(recs, Rec{TSC: tsc, Name: "x", Kind: ktau.KindAtomic})
		}
		c.Ingest(Frame{Streams: []Stream{{PID: 1, Recs: recs}}}, 0)
		sameChromeTrace(t, c)
	}
}

// FuzzChromeEvent checks that for any name, value, TSC, kind and clock, the
// streaming export writes the bytes the encoding/json reference writes.
func FuzzChromeEvent(f *testing.F) {
	f.Add("sys_read", int64(0), int64(1000), uint8(ktau.KindEntry), int64(450_000_000))
	f.Add("<\u2028\xff\"\\", int64(-7), int64(-3), uint8(ktau.KindAtomic), int64(1))
	f.Add("tick", int64(1<<40), int64(1), uint8(ktau.KindExit), int64(1<<62))
	f.Add("", int64(0), int64(0), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, name string, val, tsc int64, kind uint8, hz int64) {
		c := NewCollector(1, hz)
		c.Ingest(Frame{Node: name, Streams: []Stream{{PID: 1, Task: name, Kernel: kind%2 == 0, Recs: []Rec{
			{TSC: 0, Name: name, Kind: ktau.RecordKind(kind), Val: val},
			{TSC: tsc, Name: name, Kind: ktau.RecordKind(kind), Val: val},
		}}}}, 0)
		sameChromeTrace(t, c)
	})
}

// TestChromeTraceConsistentUnderIngest exports while frames keep arriving,
// as ktaud does when it writes a trace before its agents drain. Every
// export must come from one snapshot: each named track carries events and
// each event's track is named.
func TestChromeTraceConsistentUnderIngest(t *testing.T) {
	c := NewCollector(2, 1000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			c.Ingest(Frame{NodeIdx: i % 2, Streams: []Stream{{PID: i, Task: "t", Kernel: i%3 == 0,
				Recs: []Rec{{TSC: int64(i), Name: "x", Kind: ktau.KindEntry}}}}}, 0)
		}
	}()
	check := func() {
		var buf bytes.Buffer
		if err := c.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Name     string `json:"name"`
			Phase    string `json:"ph"`
			PID, TID int
		}
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("export is not valid JSON: %v", err)
		}
		named, used := map[[2]int]bool{}, map[[2]int]bool{}
		for _, e := range events {
			switch {
			case e.Name == "thread_name":
				named[[2]int{e.PID, e.TID}] = true
			case e.Phase == "B":
				used[[2]int{e.PID, e.TID}] = true
			}
		}
		for tr := range used {
			if !named[tr] {
				t.Fatalf("track %v has events but no thread_name", tr)
			}
		}
		for tr := range named {
			if !used[tr] {
				t.Fatalf("track %v is named but has no events", tr)
			}
		}
	}
	for {
		select {
		case <-done:
			check()
			return
		default:
			check()
		}
	}
}
