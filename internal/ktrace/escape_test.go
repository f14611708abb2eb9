package ktrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ktau/internal/ktau"
)

// TestChromeTraceEscapesNames pins the JSON robustness of the Chrome trace
// export: event names containing quotes, backslashes and control characters
// must survive a marshal/unmarshal round trip, and the emitted document must
// parse as valid JSON.
func TestChromeTraceEscapesNames(t *testing.T) {
	hostile := []string{
		`do_IRQ["timer"]`,
		`C:\kernel\path`,
		"tab\there",
		`quote"back\slash"mix`,
		"newline\nname",
	}
	tl := make([]Event, 0, 2*len(hostile))
	for i, name := range hostile {
		tsc := int64(1000 * (i + 1))
		tl = append(tl,
			Event{TSC: tsc, Name: name, Kernel: i%2 == 0, Kind: ktau.KindEntry},
			Event{TSC: tsc + 500, Name: name, Kernel: i%2 == 0, Kind: ktau.KindExit},
		)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl, 450_000_000, 42); err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != len(tl) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(tl))
	}
	for i, e := range parsed {
		if e.Name != tl[i].Name {
			t.Errorf("event %d name mangled: got %q want %q", i, e.Name, tl[i].Name)
		}
	}
	// Raw quotes inside a name must never appear unescaped in the stream:
	// the substring `["timer"]` can only occur un-escaped if escaping broke.
	if strings.Contains(buf.String(), `["timer"]`) {
		t.Error("unescaped quoted name leaked into the JSON stream")
	}
}

// TestChromeTraceMatchesEncoder pins the streaming export to the bytes
// encoding/json writes for the same events, over hostile names, every
// record kind, timestamps in both float forms, and an empty timeline.
func TestChromeTraceMatchesEncoder(t *testing.T) {
	type refEvent struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	const hz = 450_000_000
	names := []string{"<b>&</b>", `q"b\s`, "ctl\x00\x1f", "ls\u2028ps\u2029", "bad\xff", ""}
	tl := []Event{}
	for i, name := range names {
		for k := ktau.RecordKind(0); k <= ktau.KindAtomic+1; k++ {
			tl = append(tl, Event{TSC: int64(i) << (9 * i), Name: name, Kernel: k%2 == 0, Kind: k, Val: int64(i - 3)})
		}
	}
	for _, tl := range [][]Event{tl, {}} {
		ref := []refEvent{}
		for _, e := range tl {
			cat, tid := "user", 1
			if e.Kernel {
				cat, tid = "kernel", 2
			}
			ev := refEvent{Name: e.Name, Cat: cat, TS: float64(e.TSC-tl[0].TSC) / hz * 1e6, PID: 3, TID: tid}
			switch e.Kind {
			case ktau.KindEntry:
				ev.Phase = "B"
			case ktau.KindExit:
				ev.Phase = "E"
			case ktau.KindAtomic:
				ev.Phase, ev.Args = "i", map[string]any{"value": e.Val}
			default:
				continue
			}
			ref = append(ref, ev)
		}
		var got, want bytes.Buffer
		if err := WriteChromeTrace(&got, tl, hz, 3); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("export differs from encoding/json:\n got  %s\n want %s", got.String(), want.String())
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestChromeWriterErrors checks that the first error stops the stream and
// reaches Close: a failing writer, and a timestamp JSON cannot express.
func TestChromeWriterErrors(t *testing.T) {
	cw := NewChromeWriter(failWriter{})
	cw.WriteEvent(&ChromeEvent{Name: "x", Phase: "B"})
	if err := cw.Close(); err == nil || err.Error() != "disk full" {
		t.Errorf("failing writer: Close = %v, want disk full", err)
	}
	var buf bytes.Buffer
	cw = NewChromeWriter(&buf)
	cw.WriteEvent(&ChromeEvent{Name: "x", Phase: "B", TS: math.NaN()})
	cw.WriteEvent(&ChromeEvent{Name: "y", Phase: "E"})
	if err := cw.Close(); err == nil {
		t.Error("NaN ts: Close returned nil")
	}
	if buf.Len() != 0 {
		t.Errorf("NaN ts: %q written after the error", buf.String())
	}
}
