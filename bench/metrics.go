package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"s3crm/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units, with each end-to-end
// metric's direction and regression bound (TestMetricTablesMatchBenchmarkJSON
// keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload. "op"
// is the workload's timed operation: a cold solve (solve-mid, ssr-solve), an
// HTTP request (serve-mix) or an edge batch applied and re-solved
// (churn-stream).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"redemption", "ratio"},
}

// perLayer are the metrics a traced run reduces from its spans, on every
// workload; a layer the workload does not reach reports 0. Layers are named
// after the repository's packages.
var perLayer = []metricDef{
	{"gio.load_ms", "ms"},
	{"graph.dataset_ms", "ms"},
	{"graph.holdout_ms", "ms"},

	{"core.pivot_ms", "ms"},
	{"core.id_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.gpi_ms", "ms"},
	{"core.scm_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"core.id_steps", "count"},
	{"core.select_steps", "count"},
	{"core.gpi_steps", "count"},
	{"core.scm_steps", "count"},
	{"core.candidate_evals", "count"},
	{"core.candidate_evals_per_step", "ratio"},
	{"core.evaluations", "count"},

	{"sketch.phase_ms", "ms"},
	{"sketch.build_ms", "ms"},
	{"sketch.rest_ms", "ms"},
	{"sketch.rounds", "count"},
	{"sketch.samples", "count"},
	{"sketch.bound_gap", "ratio"},
	{"sketch.reuse_frac", "ratio"},
	{"sketch.redrawn", "count"},

	{"diffusion.evaluate_ms", "ms"},
	{"diffusion.evaluate_alloc_kib", "KiB"},

	{"s3crm.new_ms", "ms"},
	{"s3crm.apply_p50_ms", "ms"},
	{"s3crm.apply_tail_ms", "ms"},
	{"s3crm.resolve_p50_ms", "ms"},
	{"s3crm.resolve_tail_ms", "ms"},
	{"s3crm.snapshots_patched", "count"},
	{"s3crm.compactions", "count"},
	{"s3crm.pools_dropped", "count"},
	{"s3crm.warm_cold_gap", "ratio"},

	{"serve.start_ms", "ms"},
	{"serve.capacity_per_s", "1/s"},
	{"serve.solve_p50_ms", "ms"},
	{"serve.evaluate_p50_ms", "ms"},
	{"serve.solve_overhead_ms", "ms"},
	{"serve.evaluate_overhead_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.late_tail_ms", "ms"},

	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
}

// tailQ is the tail percentile, reported from tailMinN samples on, the count
// that leaves ten samples beyond it. It stays at p90 even where a run has
// the thousand samples p99 needs: on a shared 2-vCPU machine the p99 of the
// same code moved by up to 3× between runs (a few-millisecond stall of the
// virtual CPU reaches about 1% of sub-millisecond ops), and across ten runs
// its quartiles spread up to 68% of the median, past any bound a
// regression check could use; p90 spread about half as much. A fixed
// percentile also keeps a faster build, completing more operations in the
// same run length, from moving the reported tail to a rarer one.
const (
	tailQ    = 0.90
	tailMinN = 100
)

// tail returns the tail percentile of xs and its value; below tailMinN
// samples no percentile above the median has ten samples beyond it, and the
// median is returned.
func tail(xs []float64) (q, v float64) {
	if len(xs) >= tailMinN {
		return tailQ, stats.Quantile(xs, tailQ)
	}
	return 0.5, median(xs)
}

func fmtPercentile(q float64) string { return fmt.Sprintf("p%g", 100*q) }

// median returns the middle value of xs (0 for no samples).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// report is one run's output: the metric values, their sample counts and
// the failure accounting.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	counts            map[string]int
	notes             map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}, notes: map[string]string{}}
}

// set records a metric value computed from n samples.
func (rp *report) set(name string, v float64, n int) {
	rp.values[name] = v
	rp.counts[name] = n
}

// note attaches a remark to a metric's output line, such as which
// percentile a tail is.
func (rp *report) note(name, remark string) { rp.notes[name] = remark }

// value returns a metric's value with NaN and infinities (empty inputs)
// mapped to 0.
func (rp *report) value(name string) float64 {
	v := rp.values[name]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// lines prints one line per metric of defs: name, value, unit, sample count
// and remark. Metrics the run did not set read 0.
func (rp *report) lines(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d %s\n", d.name, rp.value(d.name), d.unit, rp.counts[d.name], rp.notes[d.name])
	}
}

// fail records a failed operation or check.
func (rp *report) fail(format string, args ...any) {
	rp.failed++
	rp.problems = append(rp.problems, fmt.Sprintf(format, args...))
}

// check counts one run-level check as an attempted operation and records it
// as failed unless ok holds.
func (rp *report) check(ok bool, format string, args ...any) {
	rp.attempted++
	if !ok {
		rp.fail(format, args...)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the lines of defs, then each recorded problem, then the
// result as one JSON line — the last line of the output.
func (rp *report) write(w io.Writer, defs []metricDef) error {
	out := resultOut{
		Correct:   rp.failed == 0,
		Attempted: max(rp.attempted, 1),
		Failed:    rp.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: rp.value(d.name), Unit: d.unit}
	}
	rp.lines(w, defs)
	sort.Strings(rp.problems)
	for _, p := range rp.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "ops=%d ops_failed=%d fail_frac=%.6g\n", out.Attempted, out.Failed, float64(out.Failed)/float64(out.Attempted))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
