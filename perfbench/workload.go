package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"ktau/internal/cluster"
	"ktau/internal/experiments"
	"ktau/internal/harness"
	"ktau/internal/kernel"
	"ktau/internal/ktau"
	"ktau/internal/netsim"
	"ktau/internal/perfmon"
	"ktau/internal/procfs"
	"ktau/internal/tracepipe"
	"ktau/internal/views"
)

// workload is one benchmark input: a fixed sweep-harness cell whose seed
// comes from the command line. Each stresses a different set of layers
// (README.md gives the reasons).
type workload struct {
	name   string
	params harness.Params // Seed is filled in per run
}

var workloads = []workload{
	// Trace merge, Chrome export and fingerprinting dominate; the
	// partitioned runner and servesim are bypassed.
	{"lu-traced", harness.Params{Exp: "chiba", Ranks: 16, Trace: "full"}},
	// Almost all simulation: runner epochs across four rack groups on two
	// workers, faults on, tracepipe bypassed.
	{"lu-racked-par2", harness.Params{Exp: "chiba", Ranks: 64, Racks: 4,
		Parallel: true, Workers: 2, Faults: "degraded"}},
	// Many short framed RPCs through the same kernel, tcpsim and perfmon
	// layers, plus servesim's queues and histograms.
	{"serve-32", harness.Params{Exp: "serve", Ranks: 32}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) cell(seed uint64) harness.Params {
	p := w.params
	p.Seed = seed
	return p
}

// The functions below restate what harness's "chiba" and "serve" specs do
// for the parameter values the workloads use, so the traced replay can
// time each public call on its own. A replay whose digests differ from the
// cell's fails the run, so a drift between the two cannot go unnoticed.

// chibaSpec mirrors the harness chiba cell's spec and live options.
func chibaSpec(p harness.Params) (experiments.ChibaSpec, experiments.LiveOptions) {
	spec := experiments.DefaultChiba(p.Ranks, 1)
	spec.Seed = p.Seed
	spec.Iters = 4
	spec.Racks = p.Racks
	spec.Parallel = p.Parallel
	spec.Workers = p.Workers
	opts := experiments.LiveOptions{PerfMon: perfmon.Config{Interval: 20 * time.Millisecond}}
	if p.Faults == "degraded" {
		plan := experiments.DegradedPlan(p.Ranks, p.Seed)
		opts.Faults = &plan
	}
	if p.Trace == "full" {
		spec.TraceCapacity = 4096
		opts.Trace = &tracepipe.Config{Interval: 25 * time.Millisecond}
	}
	return spec, opts
}

// serveSpec mirrors the harness serve cell's spec.
func serveSpec(p harness.Params) experiments.ServeSpec {
	spec := experiments.DefaultServe(p.Ranks)
	spec.Seed = p.Seed
	spec.Racks = p.Racks
	spec.Parallel = p.Parallel
	spec.Workers = p.Workers
	return spec
}

// bootConfig is the cluster configuration the cell boots: node specs,
// kernel and ktau options, topology and seed. Timing cluster.New on it
// alone gives the set-up cost.
func bootConfig(p harness.Params) cluster.Config {
	if p.Exp == "serve" {
		spec := serveSpec(p)
		return cluster.Config{
			Nodes: cluster.UniformNodes("ccn", spec.Nodes),
			Ktau: ktau.Options{
				Compiled: ktau.GroupAll, Boot: ktau.GroupAll, RetainExited: true,
			},
			Link:     netsim.DefaultLinkSpec(),
			Topology: topology(spec.Nodes, spec.Racks),
			Seed:     spec.Seed,
			Parallel: spec.Parallel,
			Workers:  spec.Workers,
		}
	}
	spec, _ := chibaSpec(p)
	nodes := spec.Ranks / spec.PerNode
	kp := kernel.DefaultParams()
	kp.IRQBalance = spec.IRQBalance
	kp.IRQPinCPU = spec.IRQPinCPU
	ko := spec.Instr.KtauOptions()
	ko.TraceCapacity = spec.TraceCapacity
	return cluster.Config{
		Nodes:    cluster.UniformNodes("ccn", nodes),
		Kernel:   kp,
		Ktau:     ko,
		TCP:      spec.TCP,
		Topology: topology(nodes, spec.Racks),
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		Workers:  spec.Workers,
	}
}

func topology(nodes, racks int) cluster.Topology {
	if racks <= 1 {
		return cluster.Topology{}
	}
	return cluster.Topology{RackSize: (nodes + racks - 1) / racks}
}

// boot boots and shuts down the workload's cluster once.
func boot(cfg cluster.Config) { cluster.New(cfg).Shutdown() }

// probeCalls counts ktau probe activations: the sum of EventTotal.Calls
// over every node the perfmon store saw. It repeats exactly for a seed.
func probeCalls(st *perfmon.Store) uint64 {
	var n uint64
	for _, info := range st.Nodes() {
		for _, t := range st.Totals(info.Name) {
			n += t.Calls
		}
	}
	return n
}

// cellStore returns the perfmon store a cell's raw result carries.
func cellStore(c *harness.CellResult) (*perfmon.Store, error) {
	switch r := c.Raw.(type) {
	case *experiments.LiveResult:
		return r.Store, nil
	case *experiments.ServeResult:
		return r.Store, nil
	}
	return nil, fmt.Errorf("cell %s: unexpected raw result %T", c.Name, c.Raw)
}

// checkInvariants checks what must hold for any seed: the job and every
// pipeline drained, the merged trace holds every ingested record, and every
// request that arrived is accounted for.
func checkInvariants(c *harness.CellResult) error {
	if c.Status != harness.StatusOK {
		return fmt.Errorf("cell %s: status %s: %s", c.Name, c.Status, c.Err)
	}
	for _, k := range []string{"completed", "drained"} {
		if c.Metrics[k] != 1 {
			return fmt.Errorf("cell %s: %s = %g, want 1", c.Name, k, c.Metrics[k])
		}
	}
	switch r := c.Raw.(type) {
	case *experiments.LiveResult:
		if r.Trace != nil {
			if !r.TraceDrained {
				return fmt.Errorf("cell %s: trace pipeline did not drain", c.Name)
			}
			col := r.Trace.Store()
			recs, _ := col.Totals()
			if n := len(col.Merged()); uint64(n) != recs {
				return fmt.Errorf("cell %s: merged trace holds %d events, collector ingested %d records", c.Name, n, recs)
			}
		}
	case *experiments.ServeResult:
		if r.LeakedConns != 0 {
			return fmt.Errorf("cell %s: %d connections leaked", c.Name, r.LeakedConns)
		}
		for _, t := range r.Tenants {
			if t.Arrived != t.OK+t.Drops+t.Lost {
				return fmt.Errorf("cell %s: tenant %s arrived %d != ok %d + drops %d + lost %d",
					c.Name, t.Name, t.Arrived, t.OK, t.Drops, t.Lost)
			}
		}
	default:
		return fmt.Errorf("cell %s: unexpected raw result %T", c.Name, c.Raw)
	}
	return nil
}

// sameDigests reports the first fingerprint that differs from want.
func sameDigests(name string, got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("cell %s: fingerprints %v, want %v", name, keys(got), keys(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("cell %s: %s fingerprint %.12s, want %.12s", name, k, got[k], v)
		}
	}
	return nil
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// exportInto appends an export to b, folding an export error into the
// bytes the way the harness's fingerprint streams do.
func exportInto(b *bytes.Buffer, name string, export func(io.Writer) error) {
	if err := export(b); err != nil {
		fmt.Fprintf(b, "%s export error: %v\n", name, err)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// replay is one traced run of a cell: the cell's work through the layers'
// public functions, with a span around each call. The root span "replay"
// covers exactly the work the untraced cell does. Spans outside it are
// probes the cell does not make (a separate boot, a separate Merged call,
// a second DetectNoise, the views render); they are timed but kept out of
// the traced wall time.
type replay struct {
	l    *ledger
	root int
	vals map[string]float64 // per-layer counts and sizes; times come from l
	fps  map[string]string  // the cell's digests, recomputed
}

// runReplay replays cell p once and checks its digests against want.
func runReplay(p harness.Params, want map[string]string) (*replay, error) {
	r := &replay{l: newLedger(), vals: map[string]float64{}}
	b := r.l.begin("cluster.boot", -1)
	boot(bootConfig(p))
	r.l.end(b)

	runtime.GC() // the same starting state as an untraced cell
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.root = r.l.begin("replay", -1)
	var post func() error
	if p.Exp == "serve" {
		post = r.serve(p)
	} else {
		post = r.chiba(p)
	}
	r.l.end(r.root)
	runtime.ReadMemStats(&m1)
	r.vals["runtime.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	r.vals["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	r.vals["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9

	if err := sameDigests(p.Name()+" (traced replay)", r.fps, want); err != nil {
		return nil, err
	}
	if err := post(); err != nil {
		return nil, err
	}
	return r, nil
}

// chiba replays harness's chiba cell and returns the probes to run after
// the root span closes.
func (r *replay) chiba(p harness.Params) func() error {
	l := r.l
	spec, opts := chibaSpec(p)
	sim := l.begin("experiments.simulate", r.root)
	var profile bytes.Buffer
	shut := -1
	opts.Observe = func(c *cluster.Cluster, _ *experiments.LiveResult) {
		l.end(sim)
		rd := l.begin("procfs.read", r.root)
		for _, n := range c.Nodes {
			size, err := n.FS.ProfileSize(procfs.PIDAll)
			if err != nil {
				fmt.Fprintf(&profile, "%s: profile error %v\n", n.Name, err)
				continue
			}
			blob := make([]byte, size)
			nr, rerr := n.FS.ProfileRead(procfs.PIDAll, blob)
			fmt.Fprintf(&profile, "%s: %d profile bytes err=%v\n", n.Name, nr, rerr)
			profile.Write(blob[:nr])
			r.vals["procfs.profile_bytes"] += float64(nr)
		}
		l.end(rd)
		shut = l.begin("experiments.shutdown", r.root)
	}
	live := experiments.RunChibaLive(spec, opts)
	l.end(shut)

	store := r.exportStore(live.Store)
	var trace bytes.Buffer
	if live.Trace != nil {
		col := live.Trace.Store()
		ch := l.begin("tracepipe.chrome", r.root)
		exportInto(&trace, "chrometrace", col.WriteChromeTrace)
		l.end(ch)
		r.vals["tracepipe.chrome_bytes"] = float64(trace.Len())
		ex := l.begin("tracepipe.export", r.root)
		exportInto(&trace, "prometheus", col.WritePrometheus)
		exportInto(&trace, "jsonlines", col.WriteJSONLines)
		l.end(ex)
	}
	fp := l.begin("harness.fingerprint", r.root)
	r.fps = map[string]string{"profile": digest(profile.Bytes()), "store": digest(store)}
	if live.Trace != nil {
		r.fps["trace"] = digest(trace.Bytes())
	}
	l.end(fp)

	return func() error {
		r.countStore(live.Store)
		if inj := live.Injector; inj != nil {
			s := inj.Stats
			r.vals["faultsim.injected"] = float64(s.Losses + s.Dups + s.Corruptions + s.Delays +
				s.Partitioned + s.Crashes + s.Slowdowns + s.Stalls + s.ProcfsErrors)
		}
		if live.Trace != nil {
			col := live.Trace.Store()
			recs, _ := col.Totals()
			r.vals["tracepipe.records"] = float64(recs)
			r.vals["tracepipe.sampled_out"] = float64(col.SampledOut())
			mg := l.begin("tracepipe.merge", -1)
			n := len(col.Merged())
			l.end(mg)
			r.vals["tracepipe.merged_events"] = float64(n)
			if uint64(n) != recs {
				return fmt.Errorf("%s: merged trace holds %d events, collector ingested %d records", p.Name(), n, recs)
			}
		}
		dt := l.begin("perfmon.detect", -1)
		noise := live.Store.DetectNoise(perfmon.DetectConfig{}, spec.Work.String()+".rank")
		l.end(dt)
		if !reflect.DeepEqual(noise, live.Noise) {
			return fmt.Errorf("%s: DetectNoise on the final store differs from the run's report", p.Name())
		}
		return r.render(func() *views.Report { return views.BuildLive(live) })
	}
}

// serve replays harness's serve cell. RunServe has no hook before its
// cluster shuts down, so experiments.simulate covers the whole call and
// experiments.shutdown stays zero.
func (r *replay) serve(p harness.Params) func() error {
	l := r.l
	spec := serveSpec(p)
	sim := l.begin("experiments.simulate", r.root)
	res := experiments.RunServe(spec)
	l.end(sim)
	he := l.begin("servesim.hist_encode", r.root)
	hist := res.Stats.AppendBinary(nil)
	l.end(he)
	store := r.exportStore(res.Store)
	fp := l.begin("harness.fingerprint", r.root)
	r.fps = map[string]string{"hist": digest(hist), "store": digest(store)}
	l.end(fp)

	return func() error {
		r.countStore(res.Store)
		var arrived, ok, drops, lost uint64
		for t := range spec.Serve.Tenants {
			a, o, d, x := res.Stats.TenantCounts(t)
			arrived, ok, drops, lost = arrived+a, ok+o, drops+d, lost+x
		}
		if arrived != ok+drops+lost {
			return fmt.Errorf("%s: arrived %d != ok %d + drops %d + lost %d", p.Name(), arrived, ok, drops, lost)
		}
		r.vals["servesim.arrived"] = float64(arrived)
		r.vals["servesim.ok"] = float64(ok)
		if arrived > 0 {
			r.vals["servesim.drop_ratio"] = float64(drops+lost) / float64(arrived)
		}
		dt := l.begin("perfmon.detect", -1)
		res.Store.DetectNoise(perfmon.DetectConfig{}, "serve.")
		l.end(dt)
		return r.render(func() *views.Report { return views.BuildServe(res) })
	}
}

// exportStore times the perfmon store's two exports into one buffer, the
// byte stream the harness's store fingerprint hashes.
func (r *replay) exportStore(st *perfmon.Store) []byte {
	var b bytes.Buffer
	ex := r.l.begin("perfmon.export", r.root)
	exportInto(&b, "prometheus", st.WritePrometheus)
	exportInto(&b, "jsonlines", func(w io.Writer) error { return st.WriteJSONLines(w, 0) })
	r.l.end(ex)
	r.vals["perfmon.export_bytes"] = float64(b.Len())
	return b.Bytes()
}

func (r *replay) countStore(st *perfmon.Store) {
	r.vals["ktau.probe_calls"] = float64(probeCalls(st))
	r.vals["perfmon.frames"] = float64(st.Frames())
	r.vals["perfmon.drops"] = float64(st.Drops())
}

// render times building and writing the integrated view a user asks for
// with -report.
func (r *replay) render(build func() *views.Report) error {
	vr := r.l.begin("views.render", -1)
	defer r.l.end(vr)
	if err := views.WriteMarkdown(io.Discard, build()); err != nil {
		return fmt.Errorf("views render: %w", err)
	}
	return nil
}
