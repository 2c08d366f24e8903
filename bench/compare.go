package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is set on end-to-end metrics only.
	Bound *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// relDiff returns (b-a)/|a|: 0 when both are 0, ±Inf when only a is.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(int(math.Copysign(1, b)))
	}
	return (b - a) / math.Abs(a)
}

// verdict classifies b against a for a metric whose better direction is
// given: "same" within bound, else "better" or "worse".
func verdict(diff, bound float64, better string) string {
	if math.Abs(diff) <= bound {
		return "same"
	}
	if (diff < 0) == (better == "lower") {
		return "better"
	}
	return "worse"
}

// compareSets prints, for every metric of every result the two sets
// share, both values and their relative difference, with the bound and a
// verdict for end-to-end metrics. It returns how many end-to-end pairs
// differ by more than their bound plus how many sim_digests differ.
func compareSets(w io.Writer, mf manifest, a, b resultSet) int {
	type key struct {
		workload string
		trace    bool
	}
	index := func(s resultSet) map[key]result {
		m := make(map[key]result, len(s.Results))
		for _, r := range s.Results {
			m[key{r.Workload, r.Trace}] = r
		}
		return m
	}
	bounds := map[string]manifestMetric{}
	for _, m := range mf.EndToEnd {
		bounds[m.Name] = m
	}
	fmt.Fprintf(w, "a: commit %s, %s, nproc %d, GOMAXPROCS %d\n", a.Env.Commit, a.Env.GoVersion, a.Env.NProc, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "b: commit %s, %s, nproc %d, GOMAXPROCS %d\n", b.Env.Commit, b.Env.GoVersion, b.Env.NProc, b.Env.GOMAXPROCS)
	bad := 0
	bi := index(b)
	for _, ra := range a.Results {
		rb, ok := bi[key{ra.Workload, ra.Trace}]
		if !ok {
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			if _, ok := rb.Metrics[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb := ra.Metrics[n].Value, rb.Metrics[n].Value
			diff := relDiff(va, vb)
			fmt.Fprintf(w, "%-10s %-28s %14.6g %14.6g %+9.2f%% %-5s", ra.Workload, n, va, vb, diff*100, ra.Metrics[n].Unit)
			if m, ok := bounds[n]; ok && m.Bound != nil {
				v := verdict(diff, *m.Bound, m.Better)
				fmt.Fprintf(w, " bound %4.1f%% %s", *m.Bound*100, v)
				if v != "same" {
					bad++
				}
			}
			fmt.Fprintln(w)
		}
		v := "same"
		if ra.SimDigest != rb.SimDigest {
			v = "DIFFERS"
			bad++
		}
		fmt.Fprintf(w, "%-10s %-28s %s\n", ra.Workload, "sim_digest", v)
	}
	return bad
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	var mf manifest
	var a, b resultSet
	if err := errors.Join(readJSON(manifestPath, &mf), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return err
	}
	if bad := compareSets(w, mf, a, b); bad > 0 {
		return fmt.Errorf("%d end-to-end metrics or digests differ by more than their bound", bad)
	}
	return nil
}
