package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// pingPongTrace drives four engines that both tick locally and relay a
// message around the ring via cross-engine posts, and returns a per-engine
// execution log. Logs are kept per engine (each engine runs sequentially) and
// concatenated in index order, so the result is a worker-interleaving-free
// fingerprint of the schedule.
func pingPongTrace(t *testing.T, workers int) string {
	t.Helper()
	const n = 4
	engines := newEngines(n)
	logs := make([][]string, n)
	r := NewRunner(engines, time.Millisecond, workers)
	var hop func(src, hopCount int)
	hop = func(src, hopCount int) {
		dst := (src + 1) % n
		at := engines[src].Now().Add(r.Lookahead())
		r.Post(src, dst, at, func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("hop %d from %d at %v", hopCount, src, engines[dst].Now()))
			if hopCount < 20 {
				hop(dst, hopCount+1)
			}
		})
	}
	for i := range engines {
		i := i
		engines[i].At(0, func() {
			logs[i] = append(logs[i], "start")
			hop(i, 0)
		})
		ticks := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("tick %d at %v", ticks, engines[i].Now()))
			ticks++
			if ticks < 30 {
				engines[i].After(700*time.Microsecond, tick)
			}
		}
		engines[i].After(300*time.Microsecond, tick)
	}
	r.RunUntil(Time(int64(50 * time.Millisecond)))
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "engine %d (now %v):\n%s\n", i, engines[i].Now(), strings.Join(l, "\n"))
	}
	return b.String()
}

// newEngines returns n fresh engines.
func newEngines(n int) []*Engine {
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngine()
	}
	return engines
}

// interleavedMatrix builds a 4-engine matrix whose partition is
// non-contiguous: groups {0, 2} and {1, 3}, 1ms inside a group and 8ms
// across.
func interleavedMatrix() *LatencyMatrix {
	m := NewLatencyMatrix(4, 8*time.Millisecond)
	for _, p := range [][2]int{{0, 2}, {2, 0}, {1, 3}, {3, 1}} {
		m.SetPair(p[0], p[1], time.Millisecond)
	}
	return m
}

func TestRunnerSerialParallelIdentical(t *testing.T) {
	cases := []struct {
		name    string
		trace   func(t *testing.T, workers int) string
		workers []int
	}{
		{"flat", pingPongTrace, []int{2, 4}},
		{"racked", rackedPingPongTrace, []int{2, 3, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.trace(t, 1)
			for _, workers := range tc.workers {
				if got := tc.trace(t, workers); got != serial {
					t.Fatalf("workers=%d schedule differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, serial, workers, got)
				}
			}
		})
	}
}

func TestRunnerClosedFinalWindow(t *testing.T) {
	// The last window (or epoch) is closed: an event exactly at the RunUntil
	// limit fires. This is the cluster deadline-boundary fix at runner level.
	cases := []struct {
		name string
		make func(engines []*Engine) *Runner
		n    int
	}{
		{"flat", func(engines []*Engine) *Runner { return NewRunner(engines, time.Millisecond, 2) }, 2},
		{"racked", func(engines []*Engine) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 2)
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := newEngines(tc.n)
			r := tc.make(engines)
			limit := Time(int64(5 * time.Millisecond))
			fired := false
			engines[tc.n-1].At(limit, func() { fired = true })
			r.RunUntil(limit)
			if !fired {
				t.Error("event exactly at the RunUntil limit did not fire")
			}
			if r.Now() != limit {
				t.Errorf("runner now = %v, want %v", r.Now(), limit)
			}
			for i, e := range engines {
				if e.Now() != limit {
					t.Errorf("engine %d clock = %v, want %v", i, e.Now(), limit)
				}
			}
		})
	}
}

func TestRunnerDrainedCalendarAdvancesClocks(t *testing.T) {
	cases := []struct {
		name   string
		make   func(engines []*Engine) *Runner
		n      int
		target Time
	}{
		{"flat", func(engines []*Engine) *Runner { return NewRunner(engines, time.Millisecond, 1) },
			2, Time(int64(20 * time.Millisecond))},
		{"racked", func(engines []*Engine) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
		}, 4, Time(int64(40 * time.Millisecond))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := newEngines(tc.n)
			r := tc.make(engines)
			engines[0].After(time.Millisecond, func() {})
			r.RunUntil(tc.target)
			if r.Now() != tc.target {
				t.Errorf("runner now = %v, want %v", r.Now(), tc.target)
			}
			for i, e := range engines {
				if e.Now() != tc.target {
					t.Errorf("engine %d clock = %v, want %v", i, e.Now(), tc.target)
				}
			}
			// A post after the drain fast-forward is still legal and delivered.
			fired := false
			r.Post(0, tc.n-1, tc.target.Add(time.Nanosecond), func() { fired = true })
			r.RunUntil(tc.target.Add(time.Millisecond))
			if !fired {
				t.Error("post after drain was not delivered")
			}
		})
	}
}

func TestRunnerPanicLowestEngineWins(t *testing.T) {
	// Two engines panic in the same window (flat) or epoch (partitioned);
	// the lowest-indexed one must surface regardless of worker count. On
	// the interleaved partition the higher panicking engine sits in the
	// lower group, so it runs first in serial mode.
	cases := []struct {
		name   string
		make   func(engines []*Engine, workers int) *Runner
		n      int
		groups string // "" = not checked
		first  int    // panics at t=10
		lowest int    // panics at t=20, and must surface
	}{
		{"flat", func(engines []*Engine, workers int) *Runner {
			return NewRunner(engines, time.Millisecond, workers)
		}, 4, "", 3, 1},
		{"racked", func(engines []*Engine, workers int) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(8, 4, 8*time.Millisecond), workers)
		}, 8, "", 6, 2},
		{"interleaved", func(engines []*Engine, workers int) *Runner {
			return NewPartitionedRunner(engines, interleavedMatrix(), workers)
		}, 4, "[[0 2] [1 3]]", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				engines := newEngines(tc.n)
				r := tc.make(engines, workers)
				if tc.groups != "" && fmt.Sprint(r.Groups()) != tc.groups {
					t.Fatalf("groups = %v, want %s", r.Groups(), tc.groups)
				}
				engines[tc.first].At(Time(10), func() { panic(fmt.Sprintf("engine %d boom", tc.first)) })
				engines[tc.lowest].At(Time(20), func() { panic(fmt.Sprintf("engine %d boom", tc.lowest)) })
				got := func() (v any) {
					defer func() { v = recover() }()
					r.RunUntil(Time(int64(time.Millisecond)))
					return nil
				}()
				if want := fmt.Sprintf("engine %d boom", tc.lowest); fmt.Sprint(got) != want {
					t.Fatalf("workers=%d: surfaced panic %v, want engine %d's", workers, got, tc.lowest)
				}
			}
		})
	}
}

func TestRunnerBarrierHooksRunPerWindow(t *testing.T) {
	// Barrier hooks run once per epoch rendezvous. On a flat topology every
	// epoch is one window, so hooks keep the per-window cadence: five 1ms
	// ticks see five windows plus the drain fast-forward. On a racked one
	// they run once per epoch, not once per group window: with an 8ms epoch
	// and 1ms group windows, a 40ms run sees ~5 hook firings, not ~40.
	cases := []struct {
		name               string
		make               func(engines []*Engine) *Runner
		n                  int
		every              time.Duration
		ticks              int
		until              time.Duration
		minHooks, maxHooks int
		span               time.Duration
	}{
		{"flat", func(engines []*Engine) *Runner { return NewRunner(engines, time.Millisecond, 1) },
			1, time.Millisecond, 5, 10 * time.Millisecond, 5, 6, time.Millisecond},
		{"racked", func(engines []*Engine) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
		}, 4, 500 * time.Microsecond, 100, 40 * time.Millisecond, 5, 8, 8 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := newEngines(tc.n)
			r := tc.make(engines)
			hooks := 0
			r.OnBarrier(func() { hooks++ })
			ticks := 0
			var tick func()
			tick = func() {
				ticks++
				if ticks < tc.ticks {
					engines[0].After(tc.every, tick)
				}
			}
			engines[0].After(0, tick)
			r.RunUntil(Time(int64(tc.until)))
			if hooks == 0 {
				t.Fatal("barrier hooks never ran")
			}
			if hooks < tc.minHooks || hooks > tc.maxHooks {
				t.Errorf("hooks ran %d times over %d ticks, want %d..%d", hooks, ticks, tc.minHooks, tc.maxHooks)
			}
			if r.EpochSpan() != tc.span {
				t.Errorf("EpochSpan = %v, want %v", r.EpochSpan(), tc.span)
			}
		})
	}
}

func TestRunnerLookaheadViolationPanics(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	engines[0].At(0, func() {
		// Posting inside the current window is a lookahead violation: the
		// destination may already be past this instant.
		r.Post(0, 1, engines[0].Now(), func() {})
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(v), "lookahead") {
			t.Fatalf("panic %v, want lookahead violation", v)
		}
	}()
	r.RunUntil(Time(int64(time.Millisecond)))
}

func TestRunnerPostFromOutsideWindow(t *testing.T) {
	// Posts while no window is running (boot time) are legal at any time >=
	// the runner clock and are delivered by the next Step.
	engines := []*Engine{NewEngine(), NewEngine()}
	r := NewRunner(engines, time.Millisecond, 1)
	fired := false
	r.Post(0, 1, Time(10), func() { fired = true })
	r.RunUntil(Time(int64(time.Millisecond)))
	if !fired {
		t.Error("boot-time post was not delivered")
	}
}
