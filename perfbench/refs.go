package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ktau/internal/harness"
)

// parseReferences strict-parses reference.json: cell name (which encodes
// every parameter, seed included) to the fingerprints harness computes for
// that cell.
func parseReferences(data []byte) (map[string]map[string]string, error) {
	var refs map[string]map[string]string
	if err := decodeStrict(data, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// refsMain records reference fingerprints for every workload over a seed
// range. Each cell must first pass the invariants.
func refsMain(args []string) int {
	fs := flag.NewFlagSet("perfbench refs", flag.ContinueOnError)
	seeds := fs.String("seeds", "0-31", "inclusive seed range lo-hi")
	out := fs.String("o", "perfbench/reference.json", "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lo, hi, err := seedRange(*seeds)
	if err != nil || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench refs: want --seeds lo-hi [-o file]")
		return 2
	}
	refs := map[string]map[string]string{}
	for _, w := range workloads {
		for seed := lo; seed <= hi; seed++ {
			c := harness.RunCell(context.Background(), w.cell(seed))
			if err := checkInvariants(c); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench refs:", err)
				return 1
			}
			refs[c.Name] = c.Fingerprints
			fmt.Fprintf(os.Stderr, "%s ok\n", c.Name)
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench refs:", err)
		return 2
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench refs:", err)
		return 2
	}
	return 0
}

func seedRange(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("seed range %q: want lo-hi", s)
	}
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("seed range %q: hi below lo", s)
	}
	return lo, hi, nil
}
