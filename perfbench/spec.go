package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"ktau/internal/harness"
)

// benchSpec is BENCHMARK.json: the benchmark's command, workloads and
// metrics, with each end-to-end metric's regression bound.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound, the share of the base median by
// which the metric may worsen, is set for end-to-end metrics only.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// decodeStrict decodes one JSON document into v, rejecting duplicate keys
// at any depth (harness.FlattenJSON, the scan the BENCH_*.json gates use),
// unknown fields and trailing data.
func decodeStrict(data []byte, v any) error {
	if _, err := harness.FlattenJSON(data); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parseBenchSpec strict-parses BENCHMARK.json and checks that it declares
// exactly this program's workloads, and metrics a comparison can judge.
func parseBenchSpec(data []byte) (*benchSpec, error) {
	var s benchSpec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json: %d workloads, the program defines %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("BENCHMARK.json: unknown workload %q", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if seen[m.Name] {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q: better = %q, want lower or higher", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return nil, fmt.Errorf("BENCHMARK.json: end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			return nil, fmt.Errorf("BENCHMARK.json: per-layer metric %q has a bound", m.Name)
		}
	}
	return &s, nil
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseBenchSpec(data)
}

// metricValue is one reported metric, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// conform builds the reported metric set from measured values: exactly the
// metrics want declares, each with its declared unit. A value the program
// did not measure, or measured but the spec does not declare, is an error,
// so the program and BENCHMARK.json cannot drift apart.
func conform(want []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q declared in BENCHMARK.json but not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(vals) != len(want) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %q measured but not declared in BENCHMARK.json", name)
			}
		}
	}
	return out, nil
}

// hostFacts identify the machine and the code a result was measured on;
// results are only comparable between runs with equal host facts.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from ("unknown" when
	// built outside a repository); SourceSHA256 identifies the Go sources
	// either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// record is one benchmark run's full result: one JSON line per run in a
// result file (--out), the input of compare mode.
type record struct {
	Workload string    `json:"workload"`
	Cell     string    `json:"cell"`
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostFacts `json:"host"`
	// Checked is "reference" when the seed has recorded fingerprints and
	// every run matched them, "invariants" otherwise.
	Checked   string `json:"checked"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// WallSamples counts the timed cells behind wall_s; WallTailPct is the
	// highest percentile with at least ten samples beyond it (0: none) and
	// WallTailS its value.
	WallSamples int                    `json:"wall_samples"`
	WallTailPct float64                `json:"wall_tail_pct"`
	WallTailS   float64                `json:"wall_tail_s"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// readRecords strict-parses a result file: one record per non-empty line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r record
		if err := decodeStrict([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" || r.Attempted < 1 || r.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: incomplete record", path, line)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// appendRecord appends r as one line to the result file at path.
func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// host gathers the host facts; root is the source tree to fingerprint.
func host(root string) hostFacts {
	h := hostFacts{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden directories such as the build cache), in path order, so results
// from trees without VCS metadata still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
