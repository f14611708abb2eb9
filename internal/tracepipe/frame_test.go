package tracepipe

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ktau/internal/ktau"
)

func sampleFrame() Frame {
	return Frame{
		Node: "ccn3", NodeIdx: 3, Round: 7, Last: true, Throttle: 2,
		Backlog: 12, ReadErrs: 2, Dropped: 1, DroppedRecs: 40,
		Streams: []Stream{
			{PID: 101, Task: "LU.rank3", Kernel: true, Lost: 5, Sampled: 17, Recs: []Rec{
				{TSC: 1000, Name: "schedule", Kind: ktau.KindEntry},
				{TSC: 1100, Name: "schedule", Kind: ktau.KindExit},
				{TSC: 1200, Name: `do_IRQ["timer"]`, Kind: ktau.KindAtomic, Val: 9},
			}},
			{PID: 101, Task: "LU.rank3", Kernel: false, Recs: []Rec{
				{TSC: 1050, Name: "MPI_Recv()", Kind: ktau.KindEntry},
				{TSC: 1300, Name: "MPI_Recv()", Kind: ktau.KindExit},
			}},
		},
		Msgs: []Msg{
			{Src: 3, Dst: 5, Tag: 7, Bytes: 4096, Seq: 2, Send: true,
				PID: 101, StartTSC: 1060, EndTSC: 1090},
			{Src: 5, Dst: 3, Tag: 8, Bytes: 64, Seq: 0, Send: false,
				PID: 101, StartTSC: 1110, EndTSC: 1290},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	blob := EncodeFrame(f)
	got, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
	if f.records() != 5 {
		t.Fatalf("records() = %d, want 5", f.records())
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	f := Frame{Node: "n0", Round: 0}
	got, err := DecodeFrame(EncodeFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "n0" || len(got.Streams) != 0 || len(got.Msgs) != 0 {
		t.Fatalf("empty round trip = %+v", got)
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Error("nil payload must fail")
	}
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Error("short payload must fail")
	}
	blob := EncodeFrame(sampleFrame())
	// Every truncation point must produce an error, never a panic.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeFrame(blob[:n]); err == nil {
			t.Fatalf("truncation at %d decoded without error", n)
		}
	}
	// Flipping the magic must fail.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("bad magic must fail")
	}
	// An element count with the top bit set must error, not go negative and
	// panic in an allocation.
	huge := binary.LittleEndian.AppendUint32(nil, TraceMagic)
	huge = binary.LittleEndian.AppendUint32(huge, TraceVersion)
	huge = append(huge, make([]byte, 10)...) // empty node name, zero counters
	huge = binary.AppendUvarint(huge, 1<<63) // name-dictionary size
	if _, err := DecodeFrame(huge); err == nil {
		t.Error("oversized name count must fail")
	}
	// The retired fixed-width v1 layout is no longer accepted.
	v1 := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	if _, err := DecodeFrame(v1); err == nil || !strings.Contains(err.Error(), "unsupported frame version 1") {
		t.Errorf("version-1 header: err = %v, want unsupported frame version", err)
	}
}

func TestFrameDictionarySharesNames(t *testing.T) {
	mk := func(reps int) Frame {
		var recs []Rec
		for i := 0; i < reps; i++ {
			recs = append(recs, Rec{TSC: int64(i), Name: "some_long_instrumentation_point_name", Kind: ktau.KindEntry})
		}
		return Frame{Node: "n", Streams: []Stream{{PID: 1, Task: "t", Kernel: true, Recs: recs}}}
	}
	one := len(EncodeFrame(mk(1)))
	hundred := len(EncodeFrame(mk(100)))
	perRec := float64(hundred-one) / 99
	// Dictionary + varint delta encoding: a repeated-name record is a small
	// TSC delta, a dictionary index, a kind byte and a zero value — a handful
	// of bytes, not the 21 a fixed-width layout spends.
	if perRec > 8 {
		t.Fatalf("per-record cost %.1f bytes suggests varint delta encoding regressed", perRec)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the sink-side decoder — the only
// input the collector takes from the simulated wire, which faultsim corrupts
// on purpose. Decoding must never panic, and whatever decodes must survive
// an encode→decode round trip unchanged.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []Frame{sampleFrame(), Frame{Node: "n0", Round: 0}} {
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
