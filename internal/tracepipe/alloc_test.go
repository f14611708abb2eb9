package tracepipe

import (
	"io"
	"testing"

	"ktau/internal/ktau"
)

// TestAppendFrameAllocsAmortized pins the per-round trace-frame encode at ≤1
// allocation per frame amortized when the caller reuses its buffer: the name
// dictionary is pooled and the output buffer is caller-owned, so the only
// tolerated allocation is an occasional pool refill.
func TestAppendFrameAllocsAmortized(t *testing.T) {
	f := Frame{Node: "n3", NodeIdx: 3, Round: 17}
	recs := make([]Rec, 0, 256)
	for i := 0; i < 256; i++ {
		recs = append(recs, Rec{TSC: int64(i), Name: "sys_read", Kind: ktau.KindEntry})
	}
	f.Streams = []Stream{{PID: 1, Task: "lu.A", Kernel: true, Recs: recs}}

	var buf []byte
	buf = AppendFrame(buf[:0], f) // warm to steady-state capacity

	allocs := testing.AllocsPerRun(500, func() {
		buf = AppendFrame(buf[:0], f)
	})
	if allocs > 1 {
		t.Fatalf("AppendFrame allocated %.2f allocs/frame, want <= 1 amortized", allocs)
	}
}

// TestWriteChromeTraceAllocsFlat pins the Chrome export's allocations as
// independent of the record count: events stream through one reused buffer,
// so neither a per-event args map nor a whole-document buffer may return.
// 10k and 100k records over the same names must allocate alike.
func TestWriteChromeTraceAllocsFlat(t *testing.T) {
	allocs := func(records int) float64 {
		c := NewCollector(2, 450_000_000)
		names := []string{"sys_read", "schedule", "do_IRQ[timer]"}
		kinds := []ktau.RecordKind{ktau.KindEntry, ktau.KindExit, ktau.KindAtomic}
		for node := 0; node < 2; node++ {
			for _, kernel := range []bool{false, true} {
				recs := make([]Rec, records/4)
				for i := range recs {
					recs[i] = Rec{TSC: int64(3*i + node), Name: names[i%len(names)], Kind: kinds[i%len(kinds)], Val: int64(i)}
				}
				c.Ingest(Frame{NodeIdx: node, Streams: []Stream{{PID: 7, Task: "lu.A", Kernel: kernel, Recs: recs}},
					Msgs: []Msg{{Src: node, Dst: 1 - node, Send: kernel, PID: 7, EndTSC: int64(node)}}}, 0)
			}
		}
		return testing.AllocsPerRun(3, func() {
			if err := c.WriteChromeTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A per-event allocation would add tens of thousands; the slack covers
	// the few allocations the race detector's runtime makes on its own.
	small, large := allocs(10_000), allocs(100_000)
	if large-small > 32 {
		t.Fatalf("WriteChromeTrace allocs grow with records: %.0f at 10k, %.0f at 100k", small, large)
	}
	t.Logf("WriteChromeTrace allocs: %.0f at 10k records, %.0f at 100k", small, large)
}
