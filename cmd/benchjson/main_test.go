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
