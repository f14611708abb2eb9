package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// xev is a cross-engine event parked in the runner's inbox until the next
// barrier flush. The (at, src, seq) triple is a strict total order: seq is
// per-source and each source engine executes sequentially, so the key — and
// therefore the merged delivery order — is independent of how worker
// goroutines interleave.
type xev struct {
	at  Time
	dst int
	src int
	seq uint64
	fn  func()
}

// compareXev is the runner's merge comparator and an explicit strict total
// order: events sort by virtual delivery time, ties between sources break
// on source engine index, and ties within one source break on the
// per-source sequence number, which is assigned in the source's (strictly
// sequential) execution order. No two xevs share the same (src, seq), so
// the relation is antisymmetric and total — sorting any permutation of the
// same events produces the same sequence, which is what makes the merged
// delivery order a pure function of the events themselves rather than of
// goroutine interleaving.
func compareXev(a, b xev) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return a.src - b.src
	}
	return cmp.Compare(a.seq, b.seq)
}

// runnerGroup is one synchronisation group: a set of engines whose mutual
// lookahead is small enough that they must advance in tight windows.
// Mid-epoch, a group is owned by exactly one worker goroutine, so all its
// fields — including the pend buffer that carries intra-group posts to the
// next group-local window — are accessed without locks.
type runnerGroup struct {
	idx     int
	members []int         // engine indices, ascending
	window  time.Duration // min intra-group pair lookahead; 0 = single engine, no internal constraint

	now       Time // group clock; singletons run straight to each epoch end and skip it
	windowEnd Time // end of the window currently running (valid mid-epoch)

	pend []xev // intra-group posts awaiting the next group-local flush
	xbuf []xev // per-destination-group merge scratch, filled at rendezvous

	cur      int // member engine currently running; a singleton's only member
	panicIdx int
	panicVal any
}

// Runner executes a set of engines (one per simulated node) under
// conservative time-windowed synchronisation derived from a per-pair
// lookahead matrix.
//
// The engines are partitioned into synchronisation groups (strongly-coupled
// pairs share a group; see LatencyMatrix.Partition) and the runner advances
// in epochs: all groups rendezvous every min-cross-group-lookahead of
// virtual time, and between rendezvous each group advances through its own
// window clock sized by its internal minimum pair lookahead, entirely
// independently of the other groups. Cross-group events are parked in an
// epoch inbox and merged — sorted once per destination group, in
// (time, source, per-source sequence) order — at the rendezvous; the pair
// lookahead guarantees they can never land inside the epoch that posted
// them.
//
// A flat topology (a matrix that partitions into one group, such as any
// uniform matrix) runs in the same loop as one singleton group per engine,
// with the matrix minimum as the epoch span: every epoch is one window no
// longer than the lookahead, run by all engines concurrently, with the
// barrier hooks at its end.
//
// The schedule is byte-identical regardless of worker count: a Runner with
// workers=1 takes the exact same scheduling decisions as a parallel run.
type Runner struct {
	engines   []*Engine
	matrix    *LatencyMatrix
	lookahead time.Duration // matrix minimum
	workers   int

	now Time

	// The inbox carries cross-group posts made mid-epoch and every post
	// made between epochs.
	mu    sync.Mutex
	inbox []xev
	spare []xev // drained inbox buffer, swapped back in by flush
	seqs  []uint64

	groups   []*runnerGroup
	groupOf  []int
	xmin     time.Duration // min cross-group pair lookahead: the epoch span
	inEpoch  bool
	epochEnd Time

	next     int64       // next group index to claim this epoch; see claim
	panicked atomic.Bool // some group recorded a panic this epoch

	hooks []func()
}

// NewRunner returns a runner over the given engines with a uniform per-pair
// lookahead: every epoch is one window of that length. lookahead must be
// positive; workers is clamped to [1, len(engines)].
func NewRunner(engines []*Engine, lookahead time.Duration, workers int) *Runner {
	if len(engines) == 0 {
		panic("sim: runner needs at least one engine")
	}
	if lookahead <= 0 {
		panic("sim: runner lookahead must be positive")
	}
	return NewPartitionedRunner(engines, NewLatencyMatrix(len(engines), lookahead), workers)
}

// NewPartitionedRunner returns a runner whose synchronisation structure is
// derived from the per-pair lookahead matrix: engines whose pair lookahead
// is within CoupleFactor of the matrix minimum share a synchronisation
// group; groups advance independently between epoch rendezvous. A matrix
// that partitions into one group (for example any uniform matrix) yields
// one singleton group per engine under an epoch of the matrix minimum,
// which every pair's lookahead is at least.
func NewPartitionedRunner(engines []*Engine, m *LatencyMatrix, workers int) *Runner {
	if len(engines) == 0 {
		panic("sim: runner needs at least one engine")
	}
	if m == nil {
		panic("sim: runner needs a latency matrix")
	}
	if m.Size() != len(engines) {
		panic(fmt.Sprintf("sim: latency matrix size %d != engine count %d", m.Size(), len(engines)))
	}
	min := m.Min()
	if min <= 0 {
		panic("sim: latency matrix minimum pair lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	r := &Runner{
		engines:   engines,
		matrix:    m,
		lookahead: min,
		workers:   workers,
		seqs:      make([]uint64, len(engines)),
		groupOf:   make([]int, len(engines)),
	}
	parts := m.Partition(CoupleFactor * min)
	if len(parts) == 1 {
		parts = make([][]int, len(engines))
		for i := range parts {
			parts[i] = []int{i}
		}
	}
	r.groups = make([]*runnerGroup, len(parts))
	for gi, members := range parts {
		r.groups[gi] = &runnerGroup{idx: gi, members: members, window: m.minWithin(members), cur: members[0], panicIdx: -1}
		for _, ei := range members {
			r.groupOf[ei] = gi
		}
	}
	r.xmin = minAcross(m, r.groupOf)
	if r.xmin == 0 {
		r.xmin = min // a single engine has no cross-group pair
	}
	return r
}

// Now returns the runner's virtual time: the end of the last completed
// epoch. Individual engine clocks never lag it between epochs.
func (r *Runner) Now() Time { return r.now }

// Lookahead returns the minimum pair lookahead: a lower bound on every
// pair's lookahead. A post at Now()+Lookahead() is legal from any barrier
// hook.
func (r *Runner) Lookahead() time.Duration { return r.lookahead }

// PairLookahead returns the lookahead of the ordered engine pair src→dst:
// the minimum virtual delay of any cross-engine post from src to dst. For
// src == dst it returns the global minimum, preserving the historical
// timing of self-directed cross-calls.
func (r *Runner) PairLookahead(src, dst int) time.Duration {
	if src < 0 || src >= len(r.engines) || dst < 0 || dst >= len(r.engines) {
		panic(fmt.Sprintf("sim: pair lookahead with engine out of range (src=%d dst=%d n=%d)", src, dst, len(r.engines)))
	}
	if src == dst {
		return r.lookahead
	}
	return r.matrix.Pair(src, dst)
}

// Workers returns the number of worker goroutines used per epoch.
func (r *Runner) Workers() int { return r.workers }

// Engines returns the engines the runner drives (index = engine id used by
// Post). The slice must not be mutated.
func (r *Runner) Engines() []*Engine { return r.engines }

// Partitioned reports whether the topology split the engines into groups
// that rendezvous less often than every minimum-lookahead window.
func (r *Runner) Partitioned() bool { return r.xmin > r.lookahead }

// Groups returns the execution groups as slices of engine indices, in
// ascending order of their lowest member. A flat topology yields one
// singleton group per engine.
func (r *Runner) Groups() [][]int {
	out := make([][]int, len(r.groups))
	for i, g := range r.groups {
		out[i] = slices.Clone(g.members)
	}
	return out
}

// EpochSpan returns the virtual-time distance between global rendezvous:
// the minimum cross-group pair lookahead (the matrix minimum on a flat
// topology, where every window is a rendezvous).
func (r *Runner) EpochSpan() time.Duration { return r.xmin }

// OnBarrier registers fn to run on the runner's goroutine at every epoch
// rendezvous, after every group's clock has reached the epoch end and
// cross-engine events have been merged. Barrier hooks are the sanctioned
// way to publish one node's state for other nodes to read in the next
// epoch.
func (r *Runner) OnBarrier(fn func()) {
	if fn == nil {
		panic("sim: nil barrier hook")
	}
	r.hooks = append(r.hooks, fn)
}

// Post schedules fn at virtual time at on engine dst, on behalf of engine
// src. It is the only safe way to schedule across engines while an epoch is
// running, and it panics if at arrives earlier than the pair lookahead
// src→dst permits — such a post is a lookahead violation and would make
// results depend on worker interleaving. Posts are merged in compareXev
// order at the next group-local window flush (intra-group) or the next
// epoch rendezvous (cross-group).
//
// Mid-epoch, Post runs on the goroutine that owns src's group (cross-engine
// events always originate from the executing engine), so group-local state
// needs no locking; only the inbox append takes the mutex. Between epochs
// any goroutine may post: the post is parked in the inbox, under the
// mutex, for the next rendezvous flush.
func (r *Runner) Post(src, dst int, at Time, fn func()) {
	if src < 0 || src >= len(r.engines) || dst < 0 || dst >= len(r.engines) {
		panic(fmt.Sprintf("sim: post with engine out of range (src=%d dst=%d n=%d)", src, dst, len(r.engines)))
	}
	if fn == nil {
		panic("sim: nil cross-engine event callback")
	}
	if !r.inEpoch {
		r.mu.Lock()
		defer r.mu.Unlock()
		if at < r.now {
			panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v before now %v", src, dst, at, r.now))
		}
		r.seqs[src]++
		r.inbox = append(r.inbox, xev{at: at, dst: dst, src: src, seq: r.seqs[src], fn: fn})
		return
	}
	if src == dst {
		// A self-directed post never crosses goroutines: the engine is owned
		// by this executor, so it is delivered directly to its own calendar
		// (which enforces at >= the engine clock) without window constraints.
		r.engines[src].At(at, fn)
		return
	}
	g := r.groups[r.groupOf[src]]
	if r.groupOf[dst] == g.idx {
		if at < g.windowEnd {
			panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v violates pair lookahead %v (group %d window ends at %v)",
				src, dst, at, r.matrix.Pair(src, dst), g.idx, g.windowEnd))
		}
		r.seqs[src]++
		g.pend = append(g.pend, xev{at: at, dst: dst, src: src, seq: r.seqs[src], fn: fn})
		return
	}
	if at < r.epochEnd {
		panic(fmt.Sprintf("sim: cross-engine post %d->%d at %v violates pair lookahead %v (epoch ends at %v)",
			src, dst, at, r.matrix.Pair(src, dst), r.epochEnd))
	}
	r.seqs[src]++
	x := xev{at: at, dst: dst, src: src, seq: r.seqs[src], fn: fn}
	r.mu.Lock()
	r.inbox = append(r.inbox, x)
	r.mu.Unlock()
}

// flushLocal delivers a group's intra-group posts into its member engines in
// compareXev order. Called only by the goroutine that owns the group (and by
// the runner goroutine at rendezvous, when no group is running).
func (g *runnerGroup) flushLocal(r *Runner) {
	slices.SortFunc(g.pend, compareXev)
	for i := range g.pend {
		r.engines[g.pend[i].dst].At(g.pend[i].at, g.pend[i].fn)
		g.pend[i].fn = nil
	}
	g.pend = g.pend[:0]
}

// flush drains every post at a rendezvous: first each group's leftover
// intra-group posts, then the inbox, whose events are bucketed by
// destination group, each bucket sorted once in compareXev order, and
// delivered bucket by bucket. Per-group sorting keeps the merge cost
// proportional to each group's own traffic instead of resorting the global
// stream, and bucket order (ascending group index) is fixed, so the engine
// insertion sequence is a pure function of the event set. The drained
// inbox is recycled into the next epoch's, so a steady cross-traffic rate
// stops allocating.
func (r *Runner) flush() {
	for _, g := range r.groups {
		if len(g.pend) > 0 {
			g.flushLocal(r)
		}
	}
	r.mu.Lock()
	pend := r.inbox
	r.inbox = r.spare[:0]
	r.mu.Unlock()
	if len(pend) == 0 {
		r.spare = pend
		return
	}
	for i := range pend {
		g := r.groups[r.groupOf[pend[i].dst]]
		g.xbuf = append(g.xbuf, pend[i])
		pend[i].fn = nil
	}
	r.spare = pend[:0]
	for _, g := range r.groups {
		if len(g.xbuf) == 0 {
			continue
		}
		slices.SortFunc(g.xbuf, compareXev)
		for i := range g.xbuf {
			r.engines[g.xbuf[i].dst].At(g.xbuf[i].at, g.xbuf[i].fn)
			g.xbuf[i].fn = nil
		}
		g.xbuf = g.xbuf[:0]
	}
}

// Step runs one epoch ending no later than limit: a rendezvous flush, then
// every group advances independently — each through its own sequence of
// group-local windows — until all clocks reach the epoch end, then the
// barrier hooks. The epoch span is the minimum cross-group pair lookahead,
// so no cross-group event posted inside the epoch can land before the next
// rendezvous; within a group the usual window invariant holds against the
// group's own (shorter) minimum pair lookahead. The final epoch — the one
// whose end is clamped to limit — is closed: events scheduled exactly at
// limit fire. Empty spans are skipped by starting at the earliest pending
// event. Step returns false, without touching any clock, when no engine
// has a pending event and all post buffers are empty.
//
// Worker goroutines claim whole groups, never individual engines:
// everything a group touches mid-epoch is owned by one goroutine, which is
// what keeps the group-local flush lock-free.
func (r *Runner) Step(limit Time) bool {
	r.flush()
	var earliest Time
	pending := false
	for _, e := range r.engines {
		if t, ok := e.NextEventAt(); ok && (!pending || t < earliest) {
			earliest, pending = t, true
		}
	}
	if !pending {
		return false
	}
	start := r.now
	if earliest > start {
		start = earliest
	}
	if start > limit {
		start = limit
	}
	end := start.Add(r.xmin)
	closed := false
	if end >= limit {
		end = limit
		closed = true
	}

	r.inEpoch = true
	r.epochEnd = end
	r.next = 0
	if r.workers == 1 {
		r.runGroups(end, closed)
	} else {
		// Hoisted into a separate method so the goroutine closure's captures
		// do not force end/closed onto the heap on the serial path above.
		r.runEpochParallel(end, closed)
	}
	r.inEpoch = false
	// Panic records are scanned, and reset, only when one was made.
	if r.panicked.Load() {
		r.raise()
	}

	r.now = end
	for _, h := range r.hooks {
		h()
	}
	return true
}

// runEpochParallel runs every group's epoch on a worker pool; group order of
// completion is irrelevant because groups share no mid-epoch state.
func (r *Runner) runEpochParallel(end Time, closed bool) {
	workers := min(r.workers, len(r.groups))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r.runGroups(end, closed)
		}()
	}
	wg.Wait()
}

// runGroups claims groups until none is left and runs each through the
// epoch.
func (r *Runner) runGroups(end Time, closed bool) {
	for !r.runClaimed(end, closed) {
	}
}

// runClaimed is runGroups' loop under a single deferred recover. A panic
// inside an engine (a simulated-application bug) stops that engine's group
// where it is, is recorded on the group, and returns false so that
// runGroups resumes at the next group. Members run in ascending order, so
// of the members that panic in the same window the lowest-indexed one is
// recorded.
func (r *Runner) runClaimed(end Time, closed bool) (done bool) {
	var g *runnerGroup
	defer func() {
		if v := recover(); v != nil {
			g.panicIdx, g.panicVal = g.cur, v
			r.panicked.Store(true)
		}
	}()
	for {
		i := r.claim()
		if i >= len(r.groups) {
			return true
		}
		g = r.groups[i]
		if g.window == 0 {
			// A singleton has no internal pair, so it runs straight to the
			// epoch end.
			r.runEngine(g.cur, end, closed)
			continue
		}
		r.runGroupEpoch(g, end, closed)
	}
}

// claim returns the index of the next group to run this epoch. Parallel
// workers share the counter; a serial run owns it and skips the atomic.
func (r *Runner) claim() int {
	if r.workers == 1 {
		r.next++
		return int(r.next) - 1
	}
	return int(atomic.AddInt64(&r.next, 1)) - 1
}

// raise re-panics with the lowest-indexed engine's recorded panic — the
// same engine's panic surfaces no matter how groups were scheduled across
// workers — after clearing every group's record.
func (r *Runner) raise() {
	idx, val := -1, any(nil)
	for _, g := range r.groups {
		if g.panicIdx >= 0 && (idx < 0 || g.panicIdx < idx) {
			idx, val = g.panicIdx, g.panicVal
		}
		g.panicIdx, g.panicVal = -1, nil
	}
	r.panicked.Store(false)
	panic(val)
}

// runGroupEpoch advances one group from its current clock to the epoch end
// through consecutive group-local windows. Each window is sized by the
// group's internal minimum pair lookahead, starts no earlier than the
// group's earliest pending event (empty spans are skipped), and is clamped
// to the epoch end; the final window of a closed epoch is itself closed.
func (r *Runner) runGroupEpoch(g *runnerGroup, epochEnd Time, closed bool) {
	for {
		if len(g.pend) > 0 {
			g.flushLocal(r)
		}
		var earliest Time
		pending := false
		for _, ei := range g.members {
			if t, ok := r.engines[ei].NextEventAt(); ok && (!pending || t < earliest) {
				earliest, pending = t, true
			}
		}
		start := g.now
		if pending && earliest > start {
			start = earliest
		}
		if start > epochEnd {
			start = epochEnd
		}
		end := epochEnd
		final := true
		if pending {
			if w := start.Add(g.window); w < epochEnd {
				end, final = w, false
			}
		}
		g.windowEnd = end
		for _, ei := range g.members {
			g.cur = ei
			r.runEngine(ei, end, closed && final)
		}
		g.now = end
		if final {
			return
		}
	}
}

// runEngine runs one engine through [.., end), or [.., end] when closed.
func (r *Runner) runEngine(ei int, end Time, closed bool) {
	if closed {
		r.engines[ei].RunUntil(end)
	} else {
		r.engines[ei].RunWindow(end)
	}
}

// RunUntil runs epochs until virtual time t. If the calendar drains first,
// every clock is advanced to t so relative scheduling keeps working.
func (r *Runner) RunUntil(t Time) {
	for r.now < t {
		if !r.Step(t) {
			for _, e := range r.engines {
				e.RunUntil(t)
			}
			for _, g := range r.groups {
				g.now = t
			}
			r.now = t
			for _, h := range r.hooks {
				h()
			}
			return
		}
	}
}
