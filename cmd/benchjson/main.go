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
// Non-benchmark lines (headers, PASS/ok, -v logs) pass through untouched to
// stderr, so piping `go test | benchjson` loses nothing.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
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
	if err := enc.Encode(results); err != nil {
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
