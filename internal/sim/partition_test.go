package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyMatrixPartition(t *testing.T) {
	t.Run("uniform is one group", func(t *testing.T) {
		m := NewLatencyMatrix(6, time.Millisecond)
		groups := m.Partition(CoupleFactor * m.Min())
		if len(groups) != 1 || len(groups[0]) != 6 {
			t.Fatalf("uniform matrix partitioned into %v, want one group of 6", groups)
		}
	})
	t.Run("two racks split", func(t *testing.T) {
		m := NewLatencyMatrix(8, time.Millisecond)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j && i/4 != j/4 {
					m.SetPair(i, j, 8*time.Millisecond)
				}
			}
		}
		if m.Min() != time.Millisecond {
			t.Fatalf("Min = %v, want 1ms", m.Min())
		}
		groups := m.Partition(CoupleFactor * m.Min())
		want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
		if fmt.Sprint(groups) != fmt.Sprint(want) {
			t.Fatalf("partition = %v, want %v", groups, want)
		}
	})
	t.Run("transitive coupling merges", func(t *testing.T) {
		// 0-1 fast, 1-2 fast, 0-2 slow: all three still share a group through
		// engine 1, and the group window is the fast pair latency.
		m := NewLatencyMatrix(3, 10*time.Millisecond)
		m.SetPair(0, 1, time.Millisecond)
		m.SetPair(1, 0, time.Millisecond)
		m.SetPair(1, 2, time.Millisecond)
		m.SetPair(2, 1, time.Millisecond)
		groups := m.Partition(CoupleFactor * m.Min())
		if len(groups) != 1 {
			t.Fatalf("partition = %v, want one group", groups)
		}
		if w := m.minWithin(groups[0]); w != time.Millisecond {
			t.Fatalf("minWithin = %v, want 1ms", w)
		}
	})
	t.Run("one-way fast link couples", func(t *testing.T) {
		m := NewLatencyMatrix(2, 10*time.Millisecond)
		m.SetPair(0, 1, time.Millisecond)
		if groups := m.Partition(CoupleFactor * time.Millisecond); len(groups) != 1 {
			t.Fatalf("partition = %v, want one group (coupling is direction-agnostic)", groups)
		}
	})
}

// rackedMatrix builds an n-engine matrix of racks of `rack` engines: 1ms
// within a rack, `inter` across racks.
func rackedMatrix(n, rack int, inter time.Duration) *LatencyMatrix {
	m := NewLatencyMatrix(n, time.Millisecond)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && i/rack != j/rack {
				m.SetPair(i, j, inter)
			}
		}
	}
	return m
}

// rackedPingPongTrace drives eight engines in two loosely-coupled racks.
// Traffic mixes intra-rack hops (pair lookahead 1ms), cross-rack hops (8ms),
// self-posts, and local ticks, and the per-engine logs are concatenated in
// index order — a worker-interleaving-free fingerprint of the schedule.
func rackedPingPongTrace(t *testing.T, workers int) string {
	t.Helper()
	const n = 8
	engines := newEngines(n)
	logs := make([][]string, n)
	r := NewPartitionedRunner(engines, rackedMatrix(n, 4, 8*time.Millisecond), workers)
	if !r.Partitioned() {
		t.Fatal("racked matrix did not partition the runner")
	}
	if len(r.Groups()) != 2 {
		t.Fatalf("groups = %v, want 2 racks", r.Groups())
	}
	var hop func(src, stride, hopCount int)
	hop = func(src, stride, hopCount int) {
		dst := (src + stride) % n
		at := engines[src].Now().Add(r.PairLookahead(src, dst))
		r.Post(src, dst, at, func() {
			logs[dst] = append(logs[dst], fmt.Sprintf("hop+%d %d from %d at %v", stride, hopCount, src, engines[dst].Now()))
			if hopCount < 16 {
				hop(dst, stride, hopCount+1)
			}
		})
	}
	for i := range engines {
		i := i
		engines[i].At(0, func() {
			logs[i] = append(logs[i], "start")
			hop(i, 1, 0) // mostly intra-rack, crosses at the rack boundary
			hop(i, 4, 0) // always cross-rack
		})
		ticks := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("tick %d at %v", ticks, engines[i].Now()))
			ticks++
			if ticks < 40 {
				engines[i].After(700*time.Microsecond, tick)
			}
		}
		engines[i].After(300*time.Microsecond, tick)
	}
	r.RunUntil(Time(int64(200 * time.Millisecond)))
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "engine %d (now %v):\n%s\n", i, engines[i].Now(), strings.Join(l, "\n"))
	}
	return b.String()
}

// TestRunnerPostBoundaries table-tests Post's legality boundary on a flat
// ("uniform") and a racked topology: exactly at the window/epoch end is legal, any earlier is a
// violation panic that names the pair lookahead, and quiescent-time posts
// are bounded only by the runner clock.
func TestRunnerPostBoundaries(t *testing.T) {
	uniform := func() *Runner {
		return NewRunner([]*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}, time.Millisecond, 1)
	}
	racked := func() *Runner {
		return NewPartitionedRunner(newEngines(4), rackedMatrix(4, 2, 8*time.Millisecond), 1)
	}
	cases := []struct {
		name  string
		make  func() *Runner
		run   func(r *Runner)
		panic string // "" = must not panic; otherwise all listed substrings, comma-separated
	}{
		{
			name: "uniform post exactly at window end is legal",
			make: uniform,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
				if !fired {
					panic("window-end post was not delivered")
				}
			},
		},
		{
			name: "uniform post inside window names pair lookahead",
			make: uniform,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
			},
			panic: "lookahead,0->1,1ms",
		},
		{
			name: "uniform post during barrier before now panics",
			make: uniform,
			run: func(r *Runner) {
				r.OnBarrier(func() {
					if r.Now() > 0 {
						r.Post(0, 1, r.Now().Add(-1), func() {})
					}
				})
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(2 * time.Millisecond)))
			},
			panic: "before now,0->1",
		},
		{
			name: "uniform post during barrier at now is legal",
			make: uniform,
			run: func(r *Runner) {
				posted := false
				r.OnBarrier(func() {
					if !posted && r.Now() > 0 {
						posted = true
						r.Post(0, 1, r.Now(), func() {})
					}
				})
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(4 * time.Millisecond)))
			},
		},
		{
			name: "uniform post after drain fast-forward before now panics",
			make: uniform,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {})
				r.RunUntil(Time(int64(10 * time.Millisecond)))
				r.Post(0, 1, Time(int64(5*time.Millisecond)), func() {})
			},
			panic: "before now,0->1",
		},
		{
			name: "intra-group post exactly at group window end is legal",
			make: racked,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					// Group window is [0, 1ms): 1ms is the first legal instant.
					r.Post(0, 1, Time(int64(time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(20 * time.Millisecond)))
				if !fired {
					panic("group-window-end post was not delivered")
				}
			},
		},
		{
			name: "intra-group violation names pair and group window",
			make: racked,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 1, Time(int64(time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(20 * time.Millisecond)))
			},
			panic: "lookahead,0->1,1ms,group 0",
		},
		{
			name: "cross-group post exactly at epoch end is legal",
			make: racked,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					// Epoch is [0, 8ms): 8ms is the first legal cross-group instant.
					r.Post(0, 2, Time(int64(8*time.Millisecond)), func() { fired = true })
				})
				r.RunUntil(Time(int64(40 * time.Millisecond)))
				if !fired {
					panic("epoch-end post was not delivered")
				}
			},
		},
		{
			name: "cross-group violation names pair and epoch",
			make: racked,
			run: func(r *Runner) {
				r.Engines()[0].At(0, func() {
					r.Post(0, 2, Time(int64(8*time.Millisecond)-1), func() {})
				})
				r.RunUntil(Time(int64(40 * time.Millisecond)))
			},
			panic: "lookahead,0->2,8ms,epoch",
		},
		{
			name: "self-post mid-window is delivered to own calendar",
			make: racked,
			run: func(r *Runner) {
				fired := false
				r.Engines()[0].At(0, func() {
					r.Post(0, 0, Time(1), func() { fired = true })
				})
				r.RunUntil(Time(int64(20 * time.Millisecond)))
				if !fired {
					panic("self-post was not delivered")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.make()
			var got any
			func() {
				defer func() { got = recover() }()
				tc.run(r)
			}()
			if tc.panic == "" {
				if got != nil {
					t.Fatalf("unexpected panic: %v", got)
				}
				return
			}
			if got == nil {
				t.Fatalf("expected panic containing %q, got none", tc.panic)
			}
			msg := fmt.Sprint(got)
			for _, want := range strings.Split(tc.panic, ",") {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q does not mention %q", msg, want)
				}
			}
		})
	}
}

// TestRunnerMergeOrderProperty is the flush-comparator property test:
// concurrent sources posting in randomized real-time interleavings must
// always produce the same delivery order, because compareXev is a strict
// total order over (at, src, seq) and seq is assigned in source execution
// order. Each trial shuffles goroutine scheduling with random yields; every
// post must be delivered, and the delivery log must match the first trial
// byte for byte. The racked case posts across racks, so the posts are
// parked in the epoch inbox, which quiescent-time posts share with
// mid-epoch cross-group ones.
func TestRunnerMergeOrderProperty(t *testing.T) {
	const sources, perSource = 6, 50
	cases := []struct {
		name string
		make func(engines []*Engine) *Runner
		n    int
		dst  func(src int) int
	}{
		{"flat", func(engines []*Engine) *Runner { return NewRunner(engines, time.Millisecond, 1) },
			sources + 1, func(int) int { return sources }},
		{"racked", func(engines []*Engine) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(8, 4, 8*time.Millisecond), 1)
		}, 8, func(src int) int {
			if src < 4 {
				return 7
			}
			return 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trial := func(seed int64) string {
				engines := newEngines(tc.n)
				r := tc.make(engines)
				var log []string
				// Sources post from their own goroutines while the runner is
				// quiescent — the inbox append order is whatever the host
				// scheduler produces, but delivery order must not depend on
				// it. Each source posts a deterministic event stream with
				// colliding timestamps.
				var wg sync.WaitGroup
				for src := 0; src < sources; src++ {
					wg.Add(1)
					go func(src int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed + int64(src)))
						dst := tc.dst(src)
						for k := 0; k < perSource; k++ {
							at := Time(int64(time.Millisecond) + int64(k%7)*int64(100*time.Microsecond))
							src, k := src, k
							if rng.Intn(2) == 0 {
								runtime.Gosched()
							}
							r.Post(src, dst, at, func() {
								log = append(log, fmt.Sprintf("src %d msg %d at %v on %d", src, k, engines[dst].Now(), dst))
							})
						}
					}(src)
				}
				wg.Wait()
				r.RunUntil(Time(int64(5 * time.Millisecond)))
				if len(log) != sources*perSource {
					t.Fatalf("seed %d delivered %d of %d posts", seed, len(log), sources*perSource)
				}
				return strings.Join(log, "\n")
			}
			want := trial(1)
			for seed := int64(2); seed <= 12; seed++ {
				if got := trial(seed); got != want {
					t.Fatalf("seed %d delivery order differs:\n--- want ---\n%s\n--- got ---\n%s", seed, want, got)
				}
			}
		})
	}
}

// TestPartitionedRunnerStepZeroAllocsSteadyState pins the pooled discipline
// on the epoch loop: once buffers are warm, epochs with steady cross-engine
// traffic (posted through pooled AtCall carriers, as netsim does) must not
// allocate. The flat case runs every engine as its own group, so all of its
// traffic crosses groups; the racked case mixes intra-group and cross-group
// posts.
func TestPartitionedRunnerStepZeroAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name        string
		make        func(engines []*Engine) *Runner
		partitioned bool
	}{
		{"flat", func(engines []*Engine) *Runner { return NewRunner(engines, time.Millisecond, 1) }, false},
		{"racked", func(engines []*Engine) *Runner {
			return NewPartitionedRunner(engines, rackedMatrix(4, 2, 8*time.Millisecond), 1)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := newEngines(4)
			r := tc.make(engines)
			if r.Partitioned() != tc.partitioned {
				t.Fatalf("Partitioned() = %v, want %v", r.Partitioned(), tc.partitioned)
			}
			// Steady traffic: pre-built ping-pong closures relay between
			// engines 0<->1 (within rack 0 when racked) and 0<->2 (across
			// racks), re-arming from inside the callbacks. The closures are
			// built once at boot, so the steady state exercises only the
			// runner's own buffers.
			var pingAB, pingBA, pingXR, pingRX func()
			pingAB = func() { r.Post(1, 0, engines[1].Now().Add(r.PairLookahead(1, 0)), pingBA) }
			pingBA = func() { r.Post(0, 1, engines[0].Now().Add(r.PairLookahead(0, 1)), pingAB) }
			pingXR = func() { r.Post(2, 0, engines[2].Now().Add(r.PairLookahead(2, 0)), pingRX) }
			pingRX = func() { r.Post(0, 2, engines[0].Now().Add(r.PairLookahead(0, 2)), pingXR) }
			engines[0].At(Time(1), pingBA)
			engines[0].At(Time(2), pingRX)
			// Warm up buffers (inbox, pend, xbuf, engine pools, heap arrays).
			end := r.Now()
			for i := 0; i < 50; i++ {
				end = end.Add(8 * time.Millisecond)
				r.RunUntil(end)
			}
			allocs := testing.AllocsPerRun(100, func() {
				end = end.Add(8 * time.Millisecond)
				r.RunUntil(end)
			})
			if allocs != 0 {
				t.Errorf("steady-state epoch allocates %v/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkRunnerWindow measures the per-window cost of the serial epoch
// loop on a flat topology: 32 engines, a 60µs lookahead (the Chiba link
// latency) and one cross-engine ping-pong, so every window runs one event
// and most engines are idle. One op is one window.
func BenchmarkRunnerWindow(b *testing.B) {
	const lookahead = 60 * time.Microsecond
	engines := newEngines(32)
	r := NewRunner(engines, lookahead, 1)
	var ping, pong func()
	ping = func() { r.Post(0, 1, engines[0].Now().Add(lookahead), pong) }
	pong = func() { r.Post(1, 0, engines[1].Now().Add(lookahead), ping) }
	engines[0].At(0, ping)
	end := r.Now()
	for i := 0; i < 100; i++ {
		end = end.Add(lookahead)
		r.RunUntil(end)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end = end.Add(lookahead)
		r.RunUntil(end)
	}
}
