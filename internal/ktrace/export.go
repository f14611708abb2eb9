package ktrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ktau/internal/ktau"
)

// Chrome trace-event export: the modern equivalent of handing the merged
// user/kernel trace to Vampir or Jumpshot (paper §2, Fig 2-E). The output
// loads directly in chrome://tracing or Perfetto: user events on one track,
// kernel events on another, nested by duration.

// WriteChromeTrace renders a merged timeline as a Chrome trace-event JSON
// array. Timestamps are converted from cycles at the given clock; pid labels
// the simulated process.
func WriteChromeTrace(w io.Writer, tl []Event, hz int64, pid int) error {
	if hz <= 0 {
		return fmt.Errorf("ktrace: non-positive clock %d", hz)
	}
	var base int64
	if len(tl) > 0 {
		base = tl[0].TSC
	}
	toUS := func(c int64) float64 { return float64(c-base) / float64(hz) * 1e6 }

	cw := NewChromeWriter(w)
	for _, e := range tl {
		cat, tid := "user", 1
		if e.Kernel {
			cat, tid = "kernel", 2
		}
		ev := ChromeEvent{Name: e.Name, Cat: cat, TS: toUS(e.TSC), PID: pid, TID: tid}
		switch e.Kind {
		case ktau.KindEntry:
			ev.Phase = "B"
		case ktau.KindExit:
			ev.Phase = "E"
		case ktau.KindAtomic:
			ev.Phase = "i"
			ev.Args = []ChromeArg{{Key: "value", Int: e.Val}}
		default:
			continue
		}
		cw.WriteEvent(&ev)
	}
	return cw.Close()
}

// ChromeEvent is one entry of the Chrome trace-event JSON array format. Its
// keys are written in the order name, cat, ph, ts, pid, tid, id, bp, args;
// cat, id and bp are omitted when zero and args when empty.
type ChromeEvent struct {
	Name   string
	Cat    string
	Phase  string
	TS     float64 // microseconds
	PID    int
	TID    int
	ID     int
	BindPt string
	Args   []ChromeArg // keys in sorted order
}

// ChromeArg is one key of an event's args object: a string value when
// IsStr is set, otherwise the integer Int.
type ChromeArg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// ChromeWriter streams a Chrome trace-event JSON array. Its bytes are the
// ones encoding/json's Encoder writes for the same events held in a slice
// of structs with map-valued args: the same key order and omissions, args
// keys sorted, strings escaped by json.Marshal (HTML-safe, invalid UTF-8
// replaced), floats in json's format, and one trailing newline. Each event
// is formatted into a reused buffer, so memory stays constant however many
// events pass through.
type ChromeWriter struct {
	w      *bufio.Writer
	buf    []byte
	quoted map[string][]byte // json.Marshal(s) by s; a trace has few distinct strings
	n      int
	err    error
}

// NewChromeWriter starts a Chrome trace-event array on w. Call Close to end
// the array and flush it.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return &ChromeWriter{w: bufio.NewWriterSize(w, 64<<10), quoted: make(map[string][]byte)}
}

// WriteEvent appends one event. The first error, from the underlying writer
// or a non-finite timestamp, stops all later writes and is returned by
// Close.
func (cw *ChromeWriter) WriteEvent(e *ChromeEvent) {
	if cw.err != nil {
		return
	}
	b := append(cw.buf[:0], ',')
	if cw.n == 0 {
		b[0] = '['
	}
	b = append(b, `{"name":`...)
	b = cw.appendString(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = cw.appendString(b, e.Cat)
	}
	b = append(b, `,"ph":`...)
	b = cw.appendString(b, e.Phase)
	b = append(b, `,"ts":`...)
	if b, cw.err = appendJSONFloat(b, e.TS); cw.err != nil {
		return
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.TID), 10)
	if e.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
	}
	if e.BindPt != "" {
		b = append(b, `,"bp":`...)
		b = cw.appendString(b, e.BindPt)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = cw.appendString(b, a.Key)
			b = append(b, ':')
			if a.IsStr {
				b = cw.appendString(b, a.Str)
			} else {
				b = strconv.AppendInt(b, a.Int, 10)
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	cw.buf = b
	cw.n++
	_, cw.err = cw.w.Write(b)
}

// Close ends the array with a newline, flushes it, and returns the first
// error any write met.
func (cw *ChromeWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	end := "]\n"
	if cw.n == 0 {
		end = "[]\n"
	}
	if _, err := cw.w.WriteString(end); err != nil {
		return err
	}
	return cw.w.Flush()
}

func (cw *ChromeWriter) appendString(b []byte, s string) []byte {
	q, ok := cw.quoted[s]
	if !ok {
		// Working on a copy keeps s from escaping, so callers' events and
		// their args can live on the stack.
		key := strings.Clone(s)
		q, _ = json.Marshal(key) // a string always marshals
		cw.quoted[key] = q
	}
	return append(b, q...)
}

// appendJSONFloat formats f the way encoding/json does: the shortest 'f'
// form, or 'e' form with a two-digit-minimum exponent trimmed to one digit
// (e-07 → e-7) when |f| < 1e-6 or |f| >= 1e21. NaN and ±Inf have no JSON
// form and are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("ktrace: unsupported ts %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
