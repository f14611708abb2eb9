package ktrace

import (
	"cmp"
	"slices"

	"ktau/internal/ktau"
)

// Per-operation duration extraction: where the profile stores only sums,
// the trace ring preserves each activation's boundaries, so true per-call
// distributions (the exact data behind the paper's Fig. 10 CDF of "a single
// kernel-level TCP operation") can be recovered from traced runs.

// OpDurations reconstructs per-activation durations (in cycles) from a
// kernel trace, keyed by event name. Nested activations are matched through
// a per-event stack; unmatched exits (ring overwrote the entry) are
// discarded.
func OpDurations(recs []ktau.Record, nameOf func(ktau.EventID) string) map[string][]int64 {
	stacks := map[ktau.EventID][]int64{}
	out := map[string][]int64{}
	for _, r := range recs {
		switch r.Kind {
		case ktau.KindEntry:
			stacks[r.Ev] = append(stacks[r.Ev], r.TSC)
		case ktau.KindExit:
			st := stacks[r.Ev]
			if len(st) == 0 {
				continue // entry lost to ring overwrite
			}
			start := st[len(st)-1]
			stacks[r.Ev] = st[:len(st)-1]
			name := nameOf(r.Ev)
			out[name] = append(out[name], r.TSC-start)
		}
	}
	return out
}

// DurationStats summarises one event's per-activation durations.
type DurationStats struct {
	Name   string
	Count  int
	Min    int64
	Median int64
	P90    int64
	Max    int64
	Mean   float64
}

// SummariseDurations computes per-event order statistics from OpDurations
// output, sorted by descending count.
func SummariseDurations(durs map[string][]int64) []DurationStats {
	out := make([]DurationStats, 0, len(durs))
	for name, ds := range durs {
		if len(ds) == 0 {
			continue
		}
		s := slices.Clone(ds)
		slices.Sort(s)
		var sum int64
		for _, v := range s {
			sum += v
		}
		out = append(out, DurationStats{
			Name:   name,
			Count:  len(s),
			Min:    s[0],
			Median: s[len(s)/2],
			P90:    s[len(s)*9/10],
			Max:    s[len(s)-1],
			Mean:   float64(sum) / float64(len(s)),
		})
	}
	slices.SortFunc(out, func(a, b DurationStats) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Name, b.Name))
	})
	return out
}
