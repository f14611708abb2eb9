package tracepipe

import (
	"cmp"
	"io"
	"slices"

	"ktau/internal/ktau"
	"ktau/internal/ktrace"
)

// ClusterEvent is one record of the merged whole-cluster timeline.
type ClusterEvent struct {
	NodeIdx int
	Node    string
	PID     int
	Task    string
	Kernel  bool
	Name    string
	Kind    ktau.RecordKind
	Val     int64
	TSC     int64
}

// Flow is one correlated MPI message: the sender-side and receiver-side
// endpoint events of the same (Src,Dst,Tag,Seq) tuple.
type Flow struct {
	Src, Dst   int // ranks
	Tag, Bytes int
	Seq        uint64
	// Sender / receiver endpoint placement.
	SrcNode, DstNode int
	SrcPID, DstPID   int
	// SendTSC is the sender-side completion time, RecvTSC the receiver-side
	// completion time (virtual TSC).
	SendTSC, RecvTSC int64
}

// Merged returns the whole-cluster timeline in deterministic order. The
// merge reuses the runner's (time, source, seq) ordering discipline: records
// are ordered by TSC; ties break by node index, then pid, user records
// before kernel records, then by the record's position in its own stream.
// The result is therefore byte-identical however many workers drove the
// simulation and in whatever order frames arrived.
func (c *Collector) Merged() []ClusterEvent {
	v := c.view()
	out := make([]ClusterEvent, 0, v.records)
	v.merge(func(i int, r *Rec) {
		key := v.keys[i]
		out = append(out, ClusterEvent{
			NodeIdx: key.NodeIdx, Node: v.nodeName(key.NodeIdx),
			PID: key.PID, Task: v.tasks[i], Kernel: key.Kernel,
			Name: r.Name, Kind: r.Kind, Val: r.Val, TSC: r.TSC,
		})
	})
	return out
}

// view is one consistent snapshot of the collector for the merged views,
// taken under a single acquisition of mu: a concurrent Ingest can never
// leave the merge, the flows and the track names disagreeing. Ingest only
// appends, so the captured slices stay valid after mu is released.
type view struct {
	keys    []streamKey // in sortedStreamKeys order
	tasks   []string    // per key
	recs    [][]Rec     // per key, TSC-ordered
	records int         // sum of len(recs[i])
	nodes   []string    // display name by node index
	msgs    []nodeMsg
}

func (c *Collector) view() *view {
	c.mu.Lock()
	v := &view{keys: c.sortedStreamKeys(), msgs: c.msgs}
	v.tasks = make([]string, len(v.keys))
	v.recs = make([][]Rec, len(v.keys))
	for i, key := range v.keys {
		st := c.streams[key]
		v.tasks[i], v.recs[i] = st.task, st.recs
	}
	v.nodes = make([]string, len(c.nodes))
	for i, n := range c.nodes {
		v.nodes[i] = n.name
	}
	c.mu.Unlock()

	// A stream is in ring order, which is not always TSC order: a kernel
	// probe that nests inside another (scheduler_tick inside do_IRQ[timer])
	// can be stamped before the record ahead of it. Such a stream is
	// stable-sorted as a copy; the stored records are never reordered.
	for i, rs := range v.recs {
		if !slices.IsSortedFunc(rs, cmpTSC) {
			rs = slices.Clone(rs)
			slices.SortStableFunc(rs, cmpTSC)
			v.recs[i] = rs
		}
		v.records += len(rs)
	}
	return v
}

func cmpTSC(a, b Rec) int { return cmp.Compare(a.TSC, b.TSC) }

// nodeName is a node's display name, empty for an index the collector has
// never seen.
func (v *view) nodeName(idx int) string {
	if idx < 0 || idx >= len(v.nodes) {
		return ""
	}
	return v.nodes[idx]
}

// merge calls fn for every record in (TSC, stream index, stream position)
// order: the order a stable sort by TSC gives the streams concatenated in
// key order. It is a k-way merge over the TSC-ordered streams, with a
// binary min-heap of each stream's next record keyed by (TSC, stream).
func (v *view) merge(fn func(stream int, r *Rec)) {
	type head struct {
		tsc    int64
		stream int
	}
	less := func(a, b head) bool { return a.tsc < b.tsc || a.tsc == b.tsc && a.stream < b.stream }
	h := make([]head, 0, len(v.recs))
	for i, rs := range v.recs {
		if len(rs) > 0 {
			h = append(h, head{rs[0].TSC, i})
		}
	}
	down := func(i int) {
		for {
			m, l := i, 2*i+1
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r := l + 1; r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	pos := make([]int, len(v.recs))
	for len(h) > 0 {
		s := h[0].stream
		rs := v.recs[s]
		fn(s, &rs[pos[s]])
		if pos[s]++; pos[s] < len(rs) {
			h[0].tsc = rs[pos[s]].TSC
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}

// Flows correlates the ingested MPI endpoint events into completed
// send→recv pairs, ordered by (Src, Dst, Tag, Seq). Messages whose sender
// or receiver endpoint was lost (dropped frame, ring overflow) stay
// uncorrelated and are omitted.
func (c *Collector) Flows() []Flow {
	c.mu.Lock()
	msgs := c.msgs
	c.mu.Unlock()
	return correlate(msgs)
}

func correlate(msgs []nodeMsg) []Flow {
	type key struct {
		src, dst, tag int
		seq           uint64
	}
	sends := make(map[key]nodeMsg, len(msgs)/2)
	recvs := make(map[key]nodeMsg, len(msgs)/2)
	for _, nm := range msgs {
		k := key{src: nm.m.Src, dst: nm.m.Dst, tag: nm.m.Tag, seq: nm.m.Seq}
		if nm.m.Send {
			sends[k] = nm
		} else {
			recvs[k] = nm
		}
	}
	out := make([]Flow, 0, len(sends))
	for k, s := range sends {
		r, ok := recvs[k]
		if !ok {
			continue
		}
		out = append(out, Flow{
			Src: k.src, Dst: k.dst, Tag: k.tag, Bytes: s.m.Bytes, Seq: k.seq,
			SrcNode: s.nodeIdx, DstNode: r.nodeIdx,
			SrcPID: s.m.PID, DstPID: r.m.PID,
			SendTSC: s.m.EndTSC, RecvTSC: r.m.EndTSC,
		})
	}
	// (Src, Dst, Tag, Seq) is unique per flow, so any sort gives one order.
	slices.SortFunc(out, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
			cmp.Compare(a.Tag, b.Tag), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// trackID maps one ring's stream onto a Chrome thread track: each task gets
// a user track (pid*2) and a kernel track (pid*2+1), grouped under its
// node's process.
func trackID(pid int, kernel bool) int {
	t := pid * 2
	if kernel {
		t++
	}
	return t
}

// WriteChromeTrace renders the merged cluster timeline as one Chrome
// trace-event JSON array, loadable in Perfetto or chrome://tracing: one
// process per node, one pair of tracks (user + kernel) per task, and flow
// arrows for every correlated MPI message. Output is deterministic and
// byte-identical across serial and parallel runs of the same seed. Events
// stream from the merge to w; the document is never held whole.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	v := c.view()
	flows := correlate(v.msgs)

	var base int64
	haveBase := false
	for _, rs := range v.recs {
		if len(rs) > 0 && (!haveBase || rs[0].TSC < base) {
			base, haveBase = rs[0].TSC, true
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

	cw := ktrace.NewChromeWriter(w)

	// Metadata: name each node's process and each stream's track.
	for i, key := range v.keys {
		if i == 0 || v.keys[i-1].NodeIdx != key.NodeIdx {
			cw.WriteEvent(&ktrace.ChromeEvent{
				Name: "process_name", Phase: "M", PID: key.NodeIdx,
				Args: []ktrace.ChromeArg{{Key: "name", Str: v.nodeName(key.NodeIdx), IsStr: true}},
			})
			cw.WriteEvent(&ktrace.ChromeEvent{
				Name: "process_sort_index", Phase: "M", PID: key.NodeIdx,
				Args: []ktrace.ChromeArg{{Key: "sort_index", Int: int64(key.NodeIdx)}},
			})
		}
		label := v.tasks[i]
		if key.Kernel {
			label += " (kernel)"
		}
		cw.WriteEvent(&ktrace.ChromeEvent{
			Name: "thread_name", Phase: "M", PID: key.NodeIdx, TID: trackID(key.PID, key.Kernel),
			Args: []ktrace.ChromeArg{{Key: "name", Str: label, IsStr: true}},
		})
	}

	v.merge(func(i int, r *Rec) {
		key := v.keys[i]
		cat := "user"
		if key.Kernel {
			cat = "kernel"
		}
		ev := ktrace.ChromeEvent{
			Name: r.Name, Cat: cat, TS: toUS(r.TSC),
			PID: key.NodeIdx, TID: trackID(key.PID, key.Kernel),
		}
		switch r.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			ev.Args = []ktrace.ChromeArg{{Key: "value", Int: r.Val}}
		default:
			return
		}
		cw.WriteEvent(&ev)
	})

	for i, f := range flows {
		cw.WriteEvent(&ktrace.ChromeEvent{
			Name: "MPI_msg", Cat: "mpi", Phase: "s", TS: toUS(f.SendTSC),
			PID: f.SrcNode, TID: trackID(f.SrcPID, false), ID: i + 1,
			Args: []ktrace.ChromeArg{ // sorted keys
				{Key: "bytes", Int: int64(f.Bytes)}, {Key: "dst", Int: int64(f.Dst)},
				{Key: "src", Int: int64(f.Src)}, {Key: "tag", Int: int64(f.Tag)},
			},
		})
		cw.WriteEvent(&ktrace.ChromeEvent{
			Name: "MPI_msg", Cat: "mpi", Phase: "f", BindPt: "e", TS: toUS(f.RecvTSC),
			PID: f.DstNode, TID: trackID(f.DstPID, false), ID: i + 1,
		})
	}
	return cw.Close()
}
