package main

import (
	"strings"
	"time"
)

// span is one timed interval of the traced replay: a call into one layer,
// named "<module>.<operation>".
type span struct {
	Name string
	// Parent is the index of the enclosing span, or -1 for a top-level span.
	Parent     int
	Start, End time.Duration // offsets from the ledger's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// ledger records the spans of one traced replay in memory. The benchmark
// records them around its own calls into the layers' public functions; the
// program under test carries no instrumentation. Spans must nest: a child
// starts and ends inside its parent, and siblings do not overlap.
type ledger struct {
	origin time.Time
	spans  []span
}

func newLedger() *ledger { return &ledger{origin: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its index.
func (l *ledger) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.origin), End: -1})
	return len(l.spans) - 1
}

// end closes span i.
func (l *ledger) end(i int) { l.spans[i].End = time.Since(l.origin) }

// self returns each span's self time: its duration minus the part of it
// its child spans cover.
func (l *ledger) self() []time.Duration {
	out := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		out[i] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.dur()
		}
	}
	return out
}

// total sums the durations of every span called name.
func (l *ledger) total(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// moduleSelf sums self time per module (the span name up to its first
// dot), skipping the span at index skip — the replay's root, whose self
// time is the unattributed remainder rather than any layer's.
func (l *ledger) moduleSelf(skip int) map[string]time.Duration {
	self := l.self()
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		if i == skip {
			continue
		}
		mod, _, _ := strings.Cut(s.Name, ".")
		out[mod] += self[i]
	}
	return out
}
