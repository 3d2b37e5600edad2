package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want benchResult
	}{
		{
			name: "plain",
			line: "BenchmarkSolve/engine=mc-2   \t       1\t  21874512 ns/op",
			want: benchResult{Name: "BenchmarkSolve/engine=mc-2", Iterations: 1, NsPerOp: 21874512},
		},
		{
			name: "custom metrics",
			line: "BenchmarkMillionNodeSolve/engine=ssr-2  1  5331702767 ns/op  761.8 heapMiB  0.3310 redemption",
			want: benchResult{
				Name: "BenchmarkMillionNodeSolve/engine=ssr-2", Iterations: 1, NsPerOp: 5331702767,
				Metrics: map[string]float64{"heapMiB": 761.8, "redemption": 0.3310},
			},
		},
		{
			name: "benchmem columns",
			line: "BenchmarkSSRBuild/workers=4-2  3  412345678 ns/op  16384 samples  1932970920 B/op  9018257 allocs/op",
			want: benchResult{
				Name: "BenchmarkSSRBuild/workers=4-2", Iterations: 3, NsPerOp: 412345678,
				Metrics: map[string]float64{"samples": 16384, "B/op": 1932970920, "allocs/op": 9018257},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := parseBenchLine(c.line)
			if !ok {
				t.Fatalf("rejected %q", c.line)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parseBenchLine(%q)\n got %+v\nwant %+v", c.line, got, c.want)
			}
		})
	}
}

func TestParseBenchLineRejectsNonBenchmarkLines(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"cpu: Intel(R) Xeon(R) Processor",
		"PASS",
		"ok  \ts3crm\t17.685s",
		"--- BENCH: BenchmarkSolve",
		"BenchmarkSolve/engine=mc-2", // name only: the header -v prints
		"BenchmarkSolve/engine=mc-2  x  123 ns/op",       // iterations not a number
		"BenchmarkSolve/engine=mc-2  1  fast ns/op",      // value not a number
		"    bench_test.go:42: BenchmarkSolve 1 2 ns/op", // log line mentioning a benchmark
	} {
		if r, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q as %+v", line, r)
		}
	}
}

// TestFoldRepeatedCells: runs of one name fold into one entry at the
// name's first place — median ns/op and metrics, total iterations, the run
// count and the ns/op range — and a cell that ran once keeps its values.
func TestFoldRepeatedCells(t *testing.T) {
	var runs []benchResult
	for _, line := range []string{
		"BenchmarkGPI-2  1  300 ns/op  10 paths  64 B/op",
		"BenchmarkSolve/engine=mc-2  1  21874512 ns/op  0.4862 redemption",
		"BenchmarkGPI-2  1  100 ns/op  10 paths  32 B/op",
		"BenchmarkGPI-2  2  200 ns/op  10 paths",
		"BenchmarkGPI-2  1  900 ns/op  12 paths  16 B/op",
	} {
		r, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("rejected %q", line)
		}
		runs = append(runs, r)
	}
	want := []benchResult{
		{
			Name: "BenchmarkGPI-2", Iterations: 5, NsPerOp: 250, Runs: 4, MinNsPerOp: 100, MaxNsPerOp: 900,
			Metrics: map[string]float64{"paths": 10, "B/op": 32},
		},
		{
			Name: "BenchmarkSolve/engine=mc-2", Iterations: 1, NsPerOp: 21874512, Runs: 1,
			MinNsPerOp: 21874512, MaxNsPerOp: 21874512, Metrics: map[string]float64{"redemption": 0.4862},
		},
	}
	if got := fold(runs); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold\n got %+v\nwant %+v", got, want)
	}
}
