package kernel

import (
	"testing"
	"time"
)

// handoffKernel starts one task that computes 1ns at a time forever and
// returns a function that steps the engine through exactly one round trip
// (the task's request handled, its segment completed, the program resumed).
func handoffKernel(tb testing.TB) func() {
	eng, k := testKernel(tb, 1, nil)
	var trips int
	k.Spawn("spin", func(u *UCtx) {
		for {
			u.Compute(time.Nanosecond)
			trips++
		}
	}, SpawnOpts{})
	return func() {
		for want := trips + 1; trips < want; {
			eng.Step()
		}
	}
}

func TestTaskHandoffAllocs(t *testing.T) {
	round := handoffKernel(t)
	for i := 0; i < 100; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("steady-state task round trip allocated %.2f allocs/op, want 0", allocs)
	}
}

// BenchmarkTaskHandoff reports ns per engine↔task round trip: one Compute
// request handed to the engine, its work segment completed, and the program
// resumed.
func BenchmarkTaskHandoff(b *testing.B) {
	round := handoffKernel(b)
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
