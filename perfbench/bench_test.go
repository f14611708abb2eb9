package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2.5, 1, 9, 4, 7}, [3]float64{1.75, 4, 8}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %g, want %g", c.xs, m, c.want[1])
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		pct  float64
		have bool
	}{
		{1, 0, false},
		{19, 0, false}, // p50 is rank 10: only 9 samples beyond
		{20, 50, true}, // rank 10, 10 beyond
		{39, 50, true}, // p75 is rank 30: 9 beyond
		{40, 75, true},
		{100, 90, true}, // p95 is rank 95: 5 beyond
		{999, 95, true}, // p99 is rank 990: 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		pct, val, ok := tailPercentile(xs)
		if ok != c.have || pct != c.pct {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.pct, c.have)
			continue
		}
		if !ok {
			continue
		}
		rank := nearestRank(pct, c.n)
		if val != float64(rank) || c.n-rank < minBeyond {
			t.Errorf("n=%d: p%g = %g (rank %d), %d samples beyond", c.n, pct, val, rank, c.n-rank)
		}
	}
}

func TestLedgerSelfTimeAndRemainder(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	l := &ledger{spans: []span{
		{Name: "cluster.boot", Parent: -1, Start: 0, End: ms(2)},            // probe
		{Name: "replay", Parent: -1, Start: ms(2), End: ms(12)},             // root
		{Name: "experiments.simulate", Parent: 1, Start: ms(3), End: ms(6)}, // 3
		{Name: "perfmon.export", Parent: 1, Start: ms(6), End: ms(10)},      // 4 with a 2 ms child
		{Name: "procfs.read", Parent: 3, Start: ms(7), End: ms(9)},          // 2
		{Name: "perfmon.export", Parent: 1, Start: ms(10), End: ms(11)},     // 1
	}}
	want := []time.Duration{ms(2), ms(2), ms(3), ms(2), ms(2), ms(1)}
	self := l.self()
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", l.spans[i].Name, i, self[i], want[i])
		}
	}
	// The root's self time is the unattributed remainder: 10 ms of root
	// minus the 3+4+1 ms its children cover.
	if self[1] != ms(2) {
		t.Errorf("unattributed = %v, want 2ms", self[1])
	}
	if got := l.total("perfmon.export"); got != ms(5) {
		t.Errorf("total(perfmon.export) = %v, want 5ms", got)
	}
	mods := l.moduleSelf(1)
	wantMods := map[string]time.Duration{"cluster": ms(2), "experiments": ms(3), "perfmon": ms(3), "procfs": ms(2)}
	if len(mods) != len(wantMods) {
		t.Errorf("moduleSelf = %v, want %v", mods, wantMods)
	}
	for m, d := range wantMods {
		if mods[m] != d {
			t.Errorf("moduleSelf[%s] = %v, want %v", m, mods[m], d)
		}
	}
}

func TestRepoBenchmarkSpecParses(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s (unit s, better lower)")
	}
}

func TestParseBenchSpecStrict(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(good)
	bad := map[string]string{
		"duplicate key":    strings.Replace(doc, `"run_seconds":`, `"run_seconds": 5, "run_seconds":`, 1),
		"nested duplicate": strings.Replace(doc, `"unit": "s",`, `"unit": "s", "unit": "ms",`, 1),
		"unknown field":    strings.Replace(doc, `"run_seconds":`, `"warmup": 1, "run_seconds":`, 1),
		"bound too wide":   strings.Replace(doc, `"bound": 0.25`, `"bound": 0.3`, 1),
		"unknown workload": strings.Replace(doc, `"name": "serve-32"`, `"name": "serve-64"`, 1),
		"trailing data":    doc + "{}",
	}
	for name, text := range bad {
		if text == doc {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := parseBenchSpec([]byte(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestReadRecordsStrict(t *testing.T) {
	rec := `{"workload":"serve-32","cell":"serve/r32-serial-none-off-s1","seed":1,"seconds":30,"trace":false,` +
		`"host":{"cpu_model":"x","nproc":2,"gomaxprocs":2,"go_version":"go1.22","commit":"unknown","source_sha256":"ab"},` +
		`"checked":"reference","attempted":12,"failed":0,"wall_samples":11,"wall_tail_pct":0,"wall_tail_s":0,` +
		`"metrics":{"wall_s":{"value":1.9,"unit":"s"}}}`
	dir := t.TempDir()
	write := func(text string) string {
		p := filepath.Join(dir, "r.jsonl")
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rs, err := readRecords(write(rec + "\n\n" + rec + "\n"))
	if err != nil || len(rs) != 2 || rs[1].Metrics["wall_s"].Value != 1.9 {
		t.Fatalf("good file: %v records, err %v", len(rs), err)
	}
	for name, text := range map[string]string{
		"duplicate key":     strings.Replace(rec, `"seed":1,`, `"seed":1,"seed":2,`, 1),
		"duplicate metric":  strings.Replace(rec, `"metrics":{`, `"metrics":{"wall_s":{"value":2,"unit":"s"},`, 1),
		"unknown field":     strings.Replace(rec, `"seed":1,`, `"seed":1,"note":"x",`, 1),
		"unknown host fact": strings.Replace(rec, `"nproc":2,`, `"nproc":2,"ram":8,`, 1),
		"trailing data":     rec + " 7",
		"no metrics":        strings.Replace(rec, `"metrics":{"wall_s":{"value":1.9,"unit":"s"}}`, `"metrics":null`, 1),
	} {
		if _, err := readRecords(write(text + "\n")); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	wide := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	cases := []struct {
		name        string
		lowerBetter bool
		head        []float64
		want        string
	}{
		{"same", true, base, verdictUnchanged},
		{"3% slower within a 10% bound", true, shift(base, 1.03), verdictUnchanged},
		{"20% slower", true, shift(base, 1.2), verdictWorse},
		{"20% faster", true, shift(base, 0.8), verdictBetter},
		{"20% more throughput", false, shift(base, 1.2), verdictBetter},
		{"20% less throughput", false, shift(base, 0.8), verdictWorse},
		{"spread wider than the bound", true, wide, verdictUnresolved},
		{"wide but every run faster", true, shift(wide, 0.3), verdictBetter},
	}
	for _, c := range cases {
		if _, _, got := judge(c.lowerBetter, 0.1, base, c.head); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, got := judge(true, 0.1, base, nil); got != verdictMissing {
		t.Errorf("no head runs: verdict %s, want %s", got, verdictMissing)
	}
}

func TestReferencesCoverWorkloads(t *testing.T) {
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := uint64(0); seed < 32; seed++ {
			name := w.cell(seed).Name()
			if len(refs[name]) == 0 {
				t.Errorf("no reference fingerprints for %s", name)
			}
		}
	}
	if _, err := parseReferences([]byte(`{"a":{"x":"1"},"a":{"x":"2"}}`)); err == nil {
		t.Error("duplicate cell in references parsed without error")
	}
}

// TestRunsConformToBenchmark drives both modes end to end on the smallest
// workload with a one-second budget (two cells each): every declared
// metric must be measured with its declared unit, and every check pass.
func TestRunsConformToBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("serve-32")
	for _, traced := range []bool{false, true} {
		r := &run{p: w.cell(1), refs: refs, budget: time.Second}
		vals, declared := r.untraced, spec.EndToEnd
		if traced {
			vals, declared = r.traced, spec.PerLayer
		}
		if _, err := conform(declared, vals()); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		if r.failed != 0 || r.checked != "reference" || len(r.walls) == 0 {
			t.Errorf("traced=%v: %d of %d failed, checked against %q, %d timed cells",
				traced, r.failed, r.attempted, r.checked, len(r.walls))
		}
	}
}
