// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON array on stdout, so CI can archive the performance
// trajectory (BENCH_2.json) instead of grepping log text.
//
// Each benchmark line
//
//	BenchmarkIDLoop/engine=worldcache-16  1  123456 ns/op  0.42 redemption  9 evals
//
// becomes
//
//	{"name":"BenchmarkIDLoop/engine=worldcache-16","iterations":1,
//	 "ns_per_op":123456,"metrics":{"redemption":0.42,"evals":9}}
//
// The -benchmem columns (B/op, allocs/op) land in metrics like any custom
// metric.
//
// Repeated cells of one name (`-count N`, or a second `go test` run appended
// to the same input) fold into one entry, in the order names first appear:
// ns_per_op and each metric become the median over the runs reporting them,
// iterations the total, and the entry records runs plus min_ns_per_op and
// max_ns_per_op, so one noisy run neither hides nor stands for the cell.
// A cell that ran once reads runs 1 with min = max = ns_per_op.
//
// Non-benchmark lines (headers, PASS/ok, -v logs) pass through untouched to
// stderr, so piping `go test | benchjson` loses nothing.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Runs       int                `json:"runs,omitempty"`
	MinNsPerOp float64            `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64            `json:"max_ns_per_op,omitempty"`
}

func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var results []benchResult
	for sc.Scan() {
		line := sc.Text()
		r, ok := parseBenchLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fold(results)); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBenchLine decodes one `go test -bench` result line: the benchmark
// name, the iteration count, then (value, unit) pairs, the first of which
// is always ns/op.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: fields[0], Iterations: iters}
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		if fields[i+1] == "ns/op" {
			r.NsPerOp = v
		} else {
			metrics[fields[i+1]] = v
		}
	}
	if len(metrics) > 0 {
		r.Metrics = metrics
	}
	return r, true
}

// fold merges the runs of each benchmark name into one entry, in the order
// the names first appear: the median ns/op and per-metric medians (over the
// runs that report the metric), the total iterations, the run count and the
// ns/op range.
func fold(runs []benchResult) []benchResult {
	var names []string
	byName := map[string][]benchResult{}
	for _, r := range runs {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]benchResult, 0, len(names))
	for _, name := range names {
		rs := byName[name]
		f := benchResult{Name: name, Runs: len(rs)}
		ns := make([]float64, len(rs))
		metrics := map[string][]float64{}
		for i, r := range rs {
			f.Iterations += r.Iterations
			ns[i] = r.NsPerOp
			for k, v := range r.Metrics {
				metrics[k] = append(metrics[k], v)
			}
		}
		f.NsPerOp = median(ns)
		f.MinNsPerOp, f.MaxNsPerOp = slices.Min(ns), slices.Max(ns)
		if len(metrics) > 0 {
			f.Metrics = make(map[string]float64, len(metrics))
			for k, vs := range metrics {
				f.Metrics[k] = median(vs)
			}
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle of vs (non-empty), the mean of the two middle
// values for an even count. It sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
