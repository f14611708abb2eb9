package perfmon

import (
	"reflect"
	"testing"

	"ktau/internal/ktau"
)

func sampleFrame() Frame {
	return Frame{
		Node:    "node3",
		NodeIdx: 3,
		Round:   7,
		CPUs:    2,
		FromTSC: 1000,
		ToTSC:   2500,
		Last:    true,
		Kernel: []ktau.EventDelta{
			{Name: "do_IRQ[timer]", Group: ktau.GroupIRQ, DCalls: 12, DIncl: 480, DExcl: 480},
			{Name: "schedule", Group: ktau.GroupSched, Absolute: true, DCalls: 3, DIncl: 90, DExcl: 90},
		},
		Procs: []ProcDelta{
			{PID: 42, Name: "LU.rank0", DTotal: 700, DIRQ: 300, DBH: 100, DSched: 300, DTCP: 0, DTicks: 9},
			{PID: 99, Name: "kjournald", DTotal: 50, DSched: 50},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleFrame()
	got, err := DecodeFrame(EncodeFrame(want))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	want := Frame{Node: "n", Round: 0}
	got, err := DecodeFrame(EncodeFrame(want))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic accepted")
	}
	blob := EncodeFrame(sampleFrame())
	for _, cut := range []int{len(blob) - 1, len(blob) / 2, 5} {
		if _, err := DecodeFrame(blob[:cut]); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(blob))
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the sink-side decoder — the only
// input the collector takes from the simulated wire, which faultsim corrupts
// on purpose. Decoding must never panic, and whatever decodes must survive
// an encode→decode round trip unchanged.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []Frame{sampleFrame(), Frame{Node: "n", Round: 0}} {
		blob := EncodeFrame(fr)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		fr, err := DecodeFrame(blob)
		if err != nil {
			return
		}
		again, err := DecodeFrame(EncodeFrame(fr))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("decode→encode→decode unstable:\n got %+v\nwant %+v", again, fr)
		}
	})
}
