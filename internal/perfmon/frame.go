package perfmon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ktau/internal/ktau"
)

// Wire protocol constants. Every collection round an agent ships one frame:
// the transport's fixed preamble (collect.HeaderBytes) followed by the delta
// payload.
const (
	// FrameMagic identifies a perfmon frame ("KMON").
	FrameMagic = 0x4b4d4f4e
	// FrameVersion is the wire format version (2 added the Gap flag).
	FrameVersion = 2
)

// TimerTickEvent is the kernel's periodic timer interrupt event. Its calls
// are a uniform sampling clock over CPU occupancy: whichever context a tick
// lands in was occupying that CPU, so per-process tick counts estimate CPU
// time without trusting cycle sums (which, per KTAU semantics, include
// switched-out time for blocking events like schedule_vol).
const TimerTickEvent = "do_IRQ[timer]"

// ProcDelta is one process's window summary: the compact per-process record
// shipped alongside the kernel-wide delta so detectors can attribute noise
// to specific daemons and interference to specific ranks.
type ProcDelta struct {
	PID  int
	Name string
	// DTotal is the window's exclusive-cycle delta summed over all the
	// process's kernel events. Cycle sums include blocked time for
	// scheduling events, so this is an upper bound on active kernel work.
	DTotal int64
	// Per-group window deltas for the groups the detectors consume.
	DIRQ   int64
	DBH    int64
	DSched int64
	DTCP   int64
	// DTicks counts TimerTickEvent activations in the process's context this
	// window — the occupancy sampling clock the noise detector uses.
	DTicks uint64
}

// Frame is one collection round's shipment from a monitored node: the node's
// kernel-wide profile delta (round N vs N−1) plus per-process summaries.
type Frame struct {
	Node    string
	NodeIdx int
	Round   int
	CPUs    int
	// FromTSC/ToTSC bound the window on the node's clock (FromTSC is 0 on
	// the first round: the window covers everything since boot).
	FromTSC int64
	ToTSC   int64
	// Last marks the agent's final round; the sink exits after ingesting it.
	Last bool
	// Gap marks a round whose data could not be read (persistent procfs
	// failure): the frame carries no deltas and an empty window (FromTSC ==
	// ToTSC), and the agent's delta baseline is left untouched so the next
	// successful round's deltas cover the gap.
	Gap bool
	// Kernel is the kernel-wide profile delta for the window.
	Kernel []ktau.EventDelta
	// Procs summarises every process that had kernel activity in the window.
	Procs []ProcDelta
}

// frameWriter appends wire-format primitives to a caller-supplied buffer.
type frameWriter struct{ b []byte }

func (w *frameWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *frameWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *frameWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *frameWriter) i64(v int64)  { w.u64(uint64(v)) }
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

// EncodeFrame serialises a frame payload (the bytes following the on-wire
// preamble; collect.HeaderBytes models the preamble itself).
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// AppendFrame serialises a frame payload, appending to dst and returning the
// extended buffer. Callers on a hot path reuse dst's capacity across rounds;
// the result aliases dst, so retainers (queues, sinks) must copy it out.
func AppendFrame(dst []byte, f Frame) []byte {
	w := frameWriter{b: dst}
	w.u32(FrameMagic)
	w.u32(FrameVersion)
	w.str(f.Node)
	w.u32(uint32(f.NodeIdx))
	w.u32(uint32(f.Round))
	w.u32(uint32(f.CPUs))
	w.i64(f.FromTSC)
	w.i64(f.ToTSC)
	w.bit(f.Last)
	w.bit(f.Gap)
	w.u32(uint32(len(f.Kernel)))
	for _, e := range f.Kernel {
		w.str(e.Name)
		w.u32(uint32(e.Group))
		w.bit(e.Absolute)
		w.u64(e.DCalls)
		w.i64(e.DIncl)
		w.i64(e.DExcl)
	}
	w.u32(uint32(len(f.Procs)))
	for _, p := range f.Procs {
		w.i64(int64(p.PID))
		w.str(p.Name)
		w.i64(p.DTotal)
		w.i64(p.DIRQ)
		w.i64(p.DBH)
		w.i64(p.DSched)
		w.i64(p.DTCP)
		w.u64(p.DTicks)
	}
	return w.b
}

// DecodeFrame parses a frame payload produced by EncodeFrame.
func DecodeFrame(blob []byte) (Frame, error) {
	r := frameReader{b: blob}
	var f Frame
	if r.u32() != FrameMagic {
		return f, errors.New("perfmon: bad frame magic")
	}
	if v := r.u32(); v != FrameVersion {
		return f, fmt.Errorf("perfmon: unsupported frame version %d", v)
	}
	f.Node = r.str()
	f.NodeIdx = int(r.u32())
	f.Round = int(r.u32())
	f.CPUs = int(r.u32())
	f.FromTSC = r.i64()
	f.ToTSC = r.i64()
	f.Last = r.u8() == 1
	f.Gap = r.u8() == 1
	nev := int(r.u32())
	for i := 0; i < nev && r.err == nil; i++ {
		var e ktau.EventDelta
		e.Name = r.str()
		e.Group = ktau.Group(r.u32())
		e.Absolute = r.u8() == 1
		e.DCalls = r.u64()
		e.DIncl = r.i64()
		e.DExcl = r.i64()
		f.Kernel = append(f.Kernel, e)
	}
	np := int(r.u32())
	for i := 0; i < np && r.err == nil; i++ {
		var p ProcDelta
		p.PID = int(r.i64())
		p.Name = r.str()
		p.DTotal = r.i64()
		p.DIRQ = r.i64()
		p.DBH = r.i64()
		p.DSched = r.i64()
		p.DTCP = r.i64()
		p.DTicks = r.u64()
		f.Procs = append(f.Procs, p)
	}
	return f, r.err
}

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
		r.err = errors.New("perfmon: truncated frame")
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

func (r *frameReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *frameReader) i64() int64 { return int64(r.u64()) }

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
