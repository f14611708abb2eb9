package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// Verdicts of compare mode.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// compareRow is one workload × end-to-end metric of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Base, Head             [3]float64 // first quartile, median, third quartile
	NBase, NHead           int
	Wins, Pairs            int // pairs in which the head run beat the base run
	Bound                  float64
	Verdict                string
}

// compareMain reads two result files (base, then head) and prints one row
// per workload × end-to-end metric with a verdict against the metric's
// bound from BENCHMARK.json.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "perfbench compare: want BASE.jsonl HEAD.jsonl")
		return 2
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	for _, d := range hostDifferences(base, head) {
		fmt.Printf("WARNING: not a same-host comparison: %s\n", d)
	}
	fmt.Printf("%-15s %-17s %-6s %-42s %-42s %-6s %s\n",
		"workload", "metric", "unit", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "wins", "verdict (bound)")
	for _, r := range compareSets(spec.EndToEnd, base, head) {
		fmt.Printf("%-15s %-17s %-6s %-42s %-42s %-6s %s (%g)\n", r.Workload, r.Metric, r.Unit,
			fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", r.Base[1], r.Base[0], r.Base[2], r.NBase),
			fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", r.Head[1], r.Head[0], r.Head[2], r.NHead),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict, r.Bound)
	}
	return 0
}

// hostDifferences lists host facts that differ within or between the two
// result sets; same-host comparisons print none.
func hostDifferences(base, head []record) []string {
	seen := map[string]bool{}
	var out []string
	var first *hostFacts
	for _, set := range [][]record{base, head} {
		for i := range set {
			h := set[i].Host
			if first == nil {
				first = &h
				continue
			}
			for _, d := range []struct{ what, a, b string }{
				{"cpu_model", first.CPUModel, h.CPUModel},
				{"nproc", fmt.Sprint(first.NProc), fmt.Sprint(h.NProc)},
				{"gomaxprocs", fmt.Sprint(first.GOMAXPROCS), fmt.Sprint(h.GOMAXPROCS)},
				{"go_version", first.GoVersion, h.GoVersion},
			} {
				msg := fmt.Sprintf("%s %q vs %q", d.what, d.a, d.b)
				if d.a != d.b && !seen[msg] {
					seen[msg] = true
					out = append(out, msg)
				}
			}
		}
	}
	return out
}

// compareSets pairs the untraced records of base and head by workload, in
// file order, and judges every end-to-end metric.
func compareSets(metrics []metricSpec, base, head []record) []compareRow {
	byWorkload := func(rs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	b, h := byWorkload(base), byWorkload(head)
	names := map[string]bool{}
	for w := range b {
		names[w] = true
	}
	for w := range h {
		names[w] = true
	}
	sortedNames := make([]string, 0, len(names))
	for w := range names {
		sortedNames = append(sortedNames, w)
	}
	sort.Strings(sortedNames)

	var rows []compareRow
	for _, w := range sortedNames {
		for _, m := range metrics {
			a, z := values(b[w], m.Name), values(h[w], m.Name)
			row := compareRow{Workload: w, Metric: m.Name, Unit: m.Unit, Bound: *m.Bound,
				NBase: len(a), NHead: len(z)}
			row.Base[0], row.Base[1], row.Base[2] = quartiles(a)
			row.Head[0], row.Head[1], row.Head[2] = quartiles(z)
			row.Wins, row.Pairs, row.Verdict = judge(m.Better == "lower", *m.Bound, a, z)
			rows = append(rows, row)
		}
	}
	return rows
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares head runs z against base runs a of one metric. Runs pair
// up in order; a pair is won when the head run is strictly better.
//
//   - When either side's quartile spread, as a share of its median, exceeds
//     the bound, the metric is unresolved unless every head run beats (or
//     loses to) every base run.
//   - Otherwise the head is better when it wins at least nine tenths of the
//     pairs and its median beats the base median by more than the base's
//     own quartile spread; worse when its median is worse by more than the
//     bound; and unchanged in between.
func judge(lowerBetter bool, bound float64, a, z []float64) (wins, pairs int, verdict string) {
	if len(a) == 0 || len(z) == 0 {
		return 0, 0, verdictMissing
	}
	gain := func(from, to float64) float64 { // improvement from → to
		if lowerBetter {
			return from - to
		}
		return to - from
	}
	pairs = min(len(a), len(z))
	for i := 0; i < pairs; i++ {
		if gain(a[i], z[i]) > 0 {
			wins++
		}
	}
	a1, am, a3 := quartiles(a)
	z1, zm, z3 := quartiles(z)
	spread := math.Max(share(a3-a1, am), share(z3-z1, zm))
	aLo, aHi := extent(a)
	zLo, zHi := extent(z)
	var allBetter, allWorse bool
	if lowerBetter {
		allBetter, allWorse = zHi < aLo, zLo > aHi
	} else {
		allBetter, allWorse = zLo > aHi, zHi < aLo
	}
	switch {
	case spread > bound && allBetter:
		return wins, pairs, verdictBetter
	case spread > bound && allWorse:
		return wins, pairs, verdictWorse
	case spread > bound:
		return wins, pairs, verdictUnresolved
	case wins*10 >= 9*pairs && gain(am, zm) > a3-a1:
		return wins, pairs, verdictBetter
	case share(-gain(am, zm), am) > bound:
		return wins, pairs, verdictWorse
	}
	return wins, pairs, verdictUnchanged
}

// share is d as a fraction of |base|.
func share(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(base)
}

func extent(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
