// Command perfbench is the repository's benchmark of the simulator's own
// host cost. It times whole sweep-harness cells (harness.RunCell) on three
// workloads, checks every run's fingerprints, and with -trace 1 replays the
// cell through each layer's public functions to attribute the time.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload lu-traced --seed 1 --seconds 35 --trace 0
//	python3 perfbench/run.py compare base.jsonl head.jsonl
//	python3 perfbench/run.py refs --seeds 0-31
//
// README.md describes the workloads, metrics and output.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ktau/internal/harness"
)

//go:embed reference.json
var referenceJSON []byte

// setupBoots is how many boots a run times for setup_s. Each boot follows
// a GC, so it starts from a clean heap, and setup_s is their median: one
// boot takes about a millisecond, too short to time steadily alone on a
// shared host.
const setupBoots = 201

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "refs":
			os.Exit(refsMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 35, "measurement time")
	trace := fs.Int("trace", 0, "1: traced replay with per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", "", "append the full result record to this file")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}

	r := &run{p: w.cell(*seed), refs: refs, budget: time.Duration(*seconds) * time.Second}
	var vals map[string]float64
	if *trace == 1 {
		vals = r.traced()
	} else {
		vals = r.untraced()
	}
	correct := r.failed == 0 && len(r.walls) > 0
	metrics, err := conform(declared, vals)
	if err != nil && correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	rec := &record{
		Workload: w.name, Cell: r.p.Name(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Host: host("."), Checked: r.checked, Attempted: r.attempted, Failed: r.failed,
		WallSamples: len(r.walls), Metrics: metrics,
	}
	rec.WallTailPct, rec.WallTailS, _ = tailPercentile(r.walls)
	printRecord(rec, declared)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// run measures one workload cell for one invocation.
type run struct {
	p      harness.Params
	refs   map[string]map[string]string
	budget time.Duration

	// want holds the digests every cell must reproduce: the reference for
	// the seed, or else the first cell's once it passed the invariants.
	want    map[string]string
	checked string

	attempted, failed int
	walls             []float64 // seconds per timed untraced cell
}

// cellStats are one untraced cell's host costs.
type cellStats struct {
	wall   float64 // seconds
	alloc  float64 // heap bytes allocated
	probes float64 // ktau probe activations
}

// cell runs one untraced cell and checks it; ok reports whether it passed.
// A GC runs first, so no cell pays for its predecessor's garbage.
func (r *run) cell() (st cellStats, ok bool) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	c := harness.RunCell(context.Background(), r.p)
	st.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	st.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.attempted++
	store, err := cellStore(c)
	if err == nil {
		err = r.check(c)
	}
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		return st, false
	}
	st.probes = float64(probeCalls(store))
	return st, true
}

func (r *run) check(c *harness.CellResult) error {
	if r.want != nil {
		if c.Status != harness.StatusOK {
			return fmt.Errorf("cell %s: status %s: %s", c.Name, c.Status, c.Err)
		}
		return sameDigests(c.Name, c.Fingerprints, r.want)
	}
	if err := checkInvariants(c); err != nil {
		return err
	}
	if ref, ok := r.refs[c.Name]; ok {
		if err := sameDigests(c.Name, c.Fingerprints, ref); err != nil {
			return fmt.Errorf("reference mismatch: %w", err)
		}
		r.want, r.checked = ref, "reference"
		return nil
	}
	r.want, r.checked = c.Fingerprints, "invariants"
	return nil
}

// over reports whether step i, which took step seconds, was the last that
// fits the budget since start. A run takes at least two steps: the first
// cell only warms caches and lazy set-up, so it is checked but not timed.
func (r *run) over(i int, start time.Time, step float64) bool {
	return i >= 1 && time.Since(start).Seconds()+step > r.budget.Seconds()
}

// untraced measures the end-to-end metrics.
func (r *run) untraced() map[string]float64 {
	cfg := bootConfig(r.p)
	setup := make([]float64, setupBoots)
	for i := range setup {
		runtime.GC()
		start := time.Now()
		boot(cfg)
		setup[i] = time.Since(start).Seconds()
	}

	var allocs, rates []float64
	start := time.Now()
	for i := 0; ; i++ {
		st, ok := r.cell()
		if ok && i > 0 {
			r.walls = append(r.walls, st.wall)
			allocs = append(allocs, st.alloc/1e6)
			rates = append(rates, st.probes/st.wall)
		}
		if r.over(i, start, st.wall) {
			break
		}
	}
	return map[string]float64{
		"wall_s":           median(r.walls),
		"setup_s":          median(setup),
		"alloc_mb":         median(allocs),
		"peak_rss_mb":      peakRSSMB(),
		"sim_events_per_s": median(rates),
		"ok_ratio":         float64(r.attempted-r.failed) / float64(r.attempted),
	}
}

// traced alternates untraced cells with traced replays of the same cell
// and returns the per-layer metrics: the median of each over the replays,
// plus the replays' wall time against the untraced cells'.
func (r *run) traced() map[string]float64 {
	samples := map[string][]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		st, ok := r.cell()
		step := st.wall
		if ok {
			if i > 0 {
				r.walls = append(r.walls, st.wall)
			}
			t := time.Now()
			rep, err := runReplay(r.p, r.want)
			step += time.Since(t).Seconds()
			r.attempted++
			if err != nil {
				r.failed++
				fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
			} else {
				for k, v := range rep.layerValues() {
					samples[k] = append(samples[k], v)
				}
			}
		}
		if r.over(i, start, step) {
			break
		}
	}
	vals := map[string]float64{}
	for k, xs := range samples {
		vals[k] = median(xs)
	}
	vals["ledger.untraced_wall_s"] = median(r.walls)
	vals["ledger.overhead_ratio"] = vals["ledger.wall_s"] / vals["ledger.untraced_wall_s"]
	return vals
}

// timedSpans are the replay's spans; each gives a per-layer "<span>_s"
// metric, zero on workloads that bypass the layer.
var timedSpans = []string{
	"cluster.boot",
	"experiments.simulate", "experiments.shutdown",
	"procfs.read",
	"perfmon.export", "perfmon.detect",
	"tracepipe.merge", "tracepipe.chrome", "tracepipe.export",
	"harness.fingerprint",
	"servesim.hist_encode",
	"views.render",
}

// layerValues turns one replay's spans and counts into per-layer metrics.
func (rp *replay) layerValues() map[string]float64 {
	v := map[string]float64{}
	for _, k := range []string{
		"ktau.probe_calls", "procfs.profile_bytes", "perfmon.export_bytes",
		"perfmon.frames", "perfmon.drops", "tracepipe.merged_events",
		"tracepipe.chrome_bytes", "tracepipe.records", "tracepipe.sampled_out",
		"servesim.arrived", "servesim.ok", "servesim.drop_ratio", "faultsim.injected",
		"runtime.mallocs", "runtime.gc_cycles", "runtime.gc_pause_s",
	} {
		v[k] = rp.vals[k]
	}
	self := rp.l.moduleSelf(rp.root)
	for _, name := range timedSpans {
		v[name+"_s"] = rp.l.total(name).Seconds()
		mod, _, _ := strings.Cut(name, ".")
		v[mod+".self_s"] = self[mod].Seconds()
	}
	v["ktau.host_ns_per_probe"] = 0
	if calls := v["ktau.probe_calls"]; calls > 0 {
		v["ktau.host_ns_per_probe"] = v["experiments.simulate_s"] * 1e9 / calls
	}
	v["ledger.wall_s"] = rp.l.spans[rp.root].dur().Seconds()
	v["ledger.unattributed_s"] = rp.l.self()[rp.root].Seconds()
	return v
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func printRecord(rec *record, declared []metricSpec) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced replay)"
	}
	h := rec.Host
	fmt.Printf("perfbench %s: %s, seed %d, %ds, %s metrics\n", rec.Workload, rec.Cell, rec.Seed, rec.Seconds, mode)
	fmt.Printf("  host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, source %.12s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceSHA256)
	fmt.Printf("  runs: %d attempted, %d failed, outputs checked against %s\n", rec.Attempted, rec.Failed, rec.Checked)
	tail := fmt.Sprintf("no percentile has %d samples beyond it", minBeyond)
	if rec.WallTailPct > 0 {
		tail = fmt.Sprintf("p%g %.4f s", rec.WallTailPct, rec.WallTailS)
	}
	fmt.Printf("  untraced cells timed: %d (%s)\n", rec.WallSamples, tail)
	names := make([]string, 0, len(declared))
	for _, m := range declared {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
