package tracepipe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"ktau/internal/ktau"
)

// Wire protocol constants. Every collection round an agent ships one trace
// frame: the transport's fixed preamble (collect.HeaderBytes) followed by
// the payload — the same framing convention as the perfmon profile frames.
const (
	// TraceMagic identifies a tracepipe frame ("KTRC").
	TraceMagic = 0x4b545243
	// TraceVersion is the wire format version: varint-delta encoding
	// (timestamps as per-stream deltas, counters as uvarints) on top of the
	// per-frame name dictionary.
	TraceVersion = 2
)

// Rec is one resolved trace record: a virtual-TSC timestamp, the event name
// (kernel instrumentation point or TAU user routine), the record kind and an
// optional atomic value. On the wire names are dictionary-encoded per frame.
type Rec struct {
	TSC  int64
	Name string
	Kind ktau.RecordKind
	Val  int64
}

// Stream is one ring buffer's drained contribution to a frame: the records
// of one task's kernel trace ring, or of one process's TAU user-level ring.
type Stream struct {
	PID    int
	Task   string
	Kernel bool
	// Lost is the ring's cumulative overwrite count at drain time — the
	// paper's "trace data may be lost if the buffer is not read fast enough".
	Lost uint64
	// Sampled is the cumulative count of records the agent's sampling policy
	// deliberately discarded from this stream. Together with Lost it keeps
	// the loss accounting exact: produced = ingested + Lost + Sampled.
	Sampled uint64
	Recs    []Rec
}

// Msg is one MPI message endpoint event used for send→recv flow
// correlation: the sender logs {Send:true, Seq:k} for its k-th message to
// (Dst,Tag), the receiver logs {Send:false, Seq:k} for its k-th receive from
// (Src,Tag). Matching (Src,Dst,Tag,Seq) tuples across nodes identify one
// message — the message lines of the paper's Fig. 2-D.
type Msg struct {
	Src, Dst int // ranks
	Tag      int
	Bytes    int
	Seq      uint64
	Send     bool
	PID      int // local endpoint's pid (binds the flow to a trace track)
	StartTSC int64
	EndTSC   int64
}

// Frame is one collection round's trace shipment from a node.
type Frame struct {
	Node    string
	NodeIdx int
	Round   int
	// Last marks the agent's final round; the sink exits after ingesting it.
	Last bool
	// Throttle is the agent's backlog-throttle level this round (0 = the
	// configured base policy was in effect).
	Throttle uint32
	// Backlog is how many records were found waiting in the node's rings at
	// drain time this round — how far behind production the agent runs.
	Backlog uint64
	// ReadErrs counts rounds-with-unreadable-rings so far (cumulative):
	// procfs trace reads that kept failing after bounded retries.
	ReadErrs uint64
	// Dropped / DroppedRecs count frames (and the records inside them) the
	// agent failed to ship so far (cumulative). They self-report shipping
	// loss: the collector learns about a dropped frame from its successor.
	Dropped     uint64
	DroppedRecs uint64
	Streams     []Stream
	Msgs        []Msg
}

// records counts the trace records carried by the frame.
func (f Frame) records() int {
	n := 0
	for _, s := range f.Streams {
		n += len(s.Recs)
	}
	return n
}

// frameWriter appends wire-format primitives to a caller-supplied buffer.
type frameWriter struct{ b []byte }

func (w *frameWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *frameWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *frameWriter) uv(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *frameWriter) zz(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *frameWriter) bit(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *frameWriter) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.b = binary.LittleEndian.AppendUint16(w.b, uint16(len(s)))
	w.b = append(w.b, s...)
}

// dict is the reusable per-frame name-interning state. Hot instrumentation
// points produce the same handful of names every round, so the dictionary's
// map buckets and name slice are pooled rather than rebuilt per frame.
type dict struct {
	names []string
	index map[string]uint32
}

func (d *dict) intern(s string) uint32 {
	if i, ok := d.index[s]; ok {
		return i
	}
	i := uint32(len(d.names))
	d.names = append(d.names, s)
	d.index[s] = i
	return i
}

func (d *dict) reset() {
	d.names = d.names[:0]
	clear(d.index)
}

var dictPool = sync.Pool{New: func() any {
	return &dict{names: make([]string, 0, 16), index: make(map[string]uint32, 16)}
}}

// EncodeFrame serialises a frame payload (the bytes following the on-wire
// preamble). Event names are interned into a per-frame dictionary so hot
// instrumentation points cost an index per record instead of a string.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// AppendFrame serialises a frame payload in the current (v2) format,
// appending to dst and returning the extended buffer. Record timestamps are
// zigzag-varint deltas against the previous record of the same stream and
// message timestamps deltas against the previous message's start, so the
// monotone virtual-TSC sequences that dominate a frame cost one or two
// bytes each instead of eight. Callers on a hot path reuse dst's capacity
// across rounds; the result aliases dst, so retainers (queues, sinks) must
// copy it out.
func AppendFrame(dst []byte, f Frame) []byte {
	// Build the name dictionary in first-appearance order (deterministic:
	// streams and records are already deterministically ordered).
	d := dictPool.Get().(*dict)
	for _, s := range f.Streams {
		for _, r := range s.Recs {
			d.intern(r.Name)
		}
	}

	w := frameWriter{b: dst}
	w.u32(TraceMagic)
	w.u32(TraceVersion)
	w.str(f.Node)
	w.uv(uint64(f.NodeIdx))
	w.uv(uint64(f.Round))
	w.bit(f.Last)
	w.uv(uint64(f.Throttle))
	w.uv(f.Backlog)
	w.uv(f.ReadErrs)
	w.uv(f.Dropped)
	w.uv(f.DroppedRecs)
	w.uv(uint64(len(d.names)))
	for _, n := range d.names {
		w.str(n)
	}
	w.uv(uint64(len(f.Streams)))
	for _, s := range f.Streams {
		w.zz(int64(s.PID))
		w.str(s.Task)
		w.bit(s.Kernel)
		w.uv(s.Lost)
		w.uv(s.Sampled)
		w.uv(uint64(len(s.Recs)))
		prev := int64(0)
		for _, r := range s.Recs {
			w.zz(r.TSC - prev)
			prev = r.TSC
			w.uv(uint64(d.index[r.Name]))
			w.u8(uint8(r.Kind))
			w.zz(r.Val)
		}
	}
	w.uv(uint64(len(f.Msgs)))
	prevStart := int64(0)
	for _, m := range f.Msgs {
		w.uv(uint64(m.Src))
		w.uv(uint64(m.Dst))
		w.zz(int64(m.Tag))
		w.zz(int64(m.Bytes))
		w.uv(m.Seq)
		w.bit(m.Send)
		w.zz(int64(m.PID))
		w.zz(m.StartTSC - prevStart)
		prevStart = m.StartTSC
		w.zz(m.EndTSC - m.StartTSC)
	}
	d.reset()
	dictPool.Put(d)
	return w.b
}

// DecodeFrame parses a frame payload produced by AppendFrame.
func DecodeFrame(blob []byte) (Frame, error) {
	r := frameReader{b: blob}
	var f Frame
	if r.u32() != TraceMagic {
		return f, errors.New("tracepipe: bad frame magic")
	}
	if v := r.u32(); v != TraceVersion {
		if r.err != nil {
			return f, r.err
		}
		return f, fmt.Errorf("tracepipe: unsupported frame version %d", v)
	}
	f.Node = r.str()
	f.NodeIdx = int(r.uv())
	f.Round = int(r.uv())
	f.Last = r.u8() == 1
	f.Throttle = uint32(r.uv())
	f.Backlog = r.uv()
	f.ReadErrs = r.uv()
	f.Dropped = r.uv()
	f.DroppedRecs = r.uv()
	nn := r.count()
	names := make([]string, 0, nn)
	for i := 0; i < nn && r.err == nil; i++ {
		names = append(names, r.str())
	}
	nameAt := func(i uint64) string {
		if i >= uint64(len(names)) {
			r.err = errors.New("tracepipe: name index out of range")
			return ""
		}
		return names[i]
	}
	ns := r.count()
	for i := 0; i < ns && r.err == nil; i++ {
		var s Stream
		s.PID = int(r.zz())
		s.Task = r.str()
		s.Kernel = r.u8() == 1
		s.Lost = r.uv()
		s.Sampled = r.uv()
		nr := r.count()
		prev := int64(0)
		for j := 0; j < nr && r.err == nil; j++ {
			var rec Rec
			prev += r.zz()
			rec.TSC = prev
			rec.Name = nameAt(r.uv())
			rec.Kind = ktau.RecordKind(r.u8())
			rec.Val = r.zz()
			s.Recs = append(s.Recs, rec)
		}
		f.Streams = append(f.Streams, s)
	}
	nm := r.count()
	prevStart := int64(0)
	for i := 0; i < nm && r.err == nil; i++ {
		var m Msg
		m.Src = int(r.uv())
		m.Dst = int(r.uv())
		m.Tag = int(r.zz())
		m.Bytes = int(r.zz())
		m.Seq = r.uv()
		m.Send = r.u8() == 1
		m.PID = int(r.zz())
		prevStart += r.zz()
		m.StartTSC = prevStart
		m.EndTSC = m.StartTSC + r.zz()
		f.Msgs = append(f.Msgs, m)
	}
	return f, r.err
}

var errTruncated = errors.New("tracepipe: truncated frame")

type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = errTruncated
		return false
	}
	return true
}

func (r *frameReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *frameReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// uv reads an unsigned varint; a truncated or overlong encoding is an error,
// never a panic.
func (r *frameReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

// count reads an element count. Every element takes at least one byte, so
// a count beyond the bytes left marks a truncated or corrupt frame; checking
// before the int conversion keeps a huge varint from going negative.
func (r *frameReader) count() int {
	v := r.uv()
	if r.err == nil && v > uint64(len(r.b)-r.off) {
		r.err = errTruncated
		return 0
	}
	return int(v)
}

// zz reads a zigzag-encoded signed varint.
func (r *frameReader) zz() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) str() string {
	if !r.need(2) {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.b[r.off:]))
	r.off += 2
	if !r.need(n) {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}
