// Command s3bench is the repository benchmark. It drives s3crm from the
// outside — the public package API in process, and the s3crmd daemon over
// HTTP — on four workloads, checks that the outputs are correct, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics reduced
// from spans recorded around every call into a layer). bench/run.sh builds
// it and the daemon from source and runs it; from the repository root:
//
//	bash bench/run.sh --workload solve-mid --seed 77 --seconds 25 --trace 0
//
// Every output line is human-readable except the last, which is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {"value",
// "unit"}}}. The exit code is 0 only when every operation and check passed.
// See bench/README.md for the workloads, metrics and span attribution rule.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads in the order -workload all runs
// them. Why each exists is in bench/README.md.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"solve-mid", (*run).solveMid},
	{"serve-mix", (*run).serveMix},
	{"churn-stream", (*run).churnStream},
	{"ssr-solve", (*run).ssrSolve},
}

// referenceRedemption is the redemption of each workload's first final
// deployment at referenceSeed when the benchmark was defined — the first,
// because the run's median depends on how many ops the window admits. A run
// at that seed fails when it differs by more than 0.5%, so that a change in
// solution quality cannot pass as a change in speed.
var referenceRedemption = map[string]float64{
	"solve-mid":    1.29365,
	"serve-mix":    0.486160,
	"churn-stream": 1.29441,
	"ssr-solve":    0.300610,
}

const referenceSeed = 77

// Each workload repeats its set-up at least setupMin times and until
// setupBudget of set-up time has accumulated, at most setupMax times;
// setup_s is the median. Millisecond set-ups thus get enough repetitions for
// a steady median, and second-long ones are not repeated needlessly.
const (
	setupMin    = 3
	setupMax    = 40
	setupBudget = time.Second
)

// run is one workload run: its inputs, its measurements and its report.
type run struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	work     string // directory for generated inputs and trace files
	daemon   string // s3crmd binary

	tr   *tracer // nil unless -trace 1
	root int     // the workload span

	mu sync.Mutex // guards rp and lat while ops run concurrently
	rp *report

	deadline time.Time // end of the measured window
	setups   []float64 // set-up times, s
	lat      []float64 // measured op latencies, ms
	rates    []float64 // redemption rates of the final deployments
	rssMiB   float64   // peak RSS of the served process, when not this one
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all (each in its own child process)")
		seed     = flag.Uint64("seed", 77, "seed every generated input is drawn from")
		seconds  = flag.Int("seconds", 25, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		work     = flag.String("work", "", "directory for generated inputs and trace files (required)")
		daemon   = flag.String("daemon", "", "s3crmd binary for serve-mix (required)")
		commit   = flag.String("commit", "unknown", "source commit, for the runner header")
	)
	flag.Parse()
	if *work == "" || *daemon == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "s3bench: need -work, -daemon, -seconds ≥ 1 and -trace 0|1; run it through bench/run.sh")
		return 2
	}
	header(os.Stdout, *commit)
	if *workload == "all" {
		return runAll(os.Args[1:])
	}
	var runFn func(*run) error
	for _, w := range workloads {
		if w.name == *workload {
			runFn = w.run
		}
	}
	if runFn == nil {
		fmt.Fprintf(os.Stderr, "s3bench: unknown workload %q\n", *workload)
		return 2
	}

	// Every run must end well inside three minutes, whatever hangs.
	window := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), min(window+120*time.Second, 170*time.Second))
	defer cancel()
	r := &run{
		ctx: ctx, workload: *workload, seed: *seed, seconds: window,
		work: *work, daemon: *daemon, rp: newReport(),
	}
	if *trace == 1 {
		r.tr = newTracer()
		r.root = r.tr.open(0, 0, "workload:"+r.workload)
	}
	if err := runFn(r); err != nil {
		r.rp.fail("%s: %v", r.workload, err)
	}
	r.endToEnd()
	if ref, ok := referenceRedemption[r.workload]; ok && r.seed == referenceSeed && len(r.rates) > 0 {
		got := r.rates[0]
		r.rp.check(math.Abs(got-ref) <= 0.005*ref, "first deployment's redemption %v at seed %d, reference %v", got, referenceSeed, ref)
	}
	defs := endToEnd
	if r.tr != nil {
		r.tr.close(r.root, nil)
		// The traced run's own end-to-end numbers, for the tracing overhead.
		fmt.Println("# traced-run end-to-end metrics (not comparable to an untraced run):")
		r.rp.lines(os.Stdout, endToEnd)
		r.reduce()
		path := filepath.Join(r.work, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			r.rp.fail("writing spans: %v", err)
		} else {
			fmt.Println("# spans:", path)
		}
		defs = perLayer
	}
	if err := r.rp.write(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "s3bench:", err)
		return 1
	}
	if r.rp.failed > 0 {
		return 1
	}
	return 0
}

// header prints the runner description every output starts with.
func header(w io.Writer, commit string) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Fprintf(w, "# runner: nproc=%d GOMAXPROCS=%d cpu=%q go=%s GOGC=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), gogc, commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload in its own child process, so that each one's
// peak RSS is its own, and prints their metrics together as
// "<workload>/<metric>".
func runAll(args []string) int {
	all := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range workloads {
		fmt.Printf("## workload %s\n", w.name)
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultOut
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			err = errors.Join(err, jerr)
		}
		if err != nil || !res.Correct {
			all.Correct = false
			fmt.Printf("## workload %s failed: %v\n", w.name, err)
		}
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

// more reports whether the measured window is still open.
func (r *run) more() bool { return time.Now().Before(r.deadline) && r.ctx.Err() == nil }

// stepFn times f as one named step of a set-up.
type stepFn = func(name string, f func() error) error

// setup runs fn repeatedly (see setupMin), each time as a "setup" span whose
// steps are child spans, and records each set-up's time for setup_s. A
// set-up's time is the sum of its steps: work fn does outside a step, such
// as stopping the previous repetition's daemon, is not set-up. The garbage
// of the previous repetition is collected first.
func (r *run) setup(fn func(step stepFn) error) error {
	var spent time.Duration
	for i := 0; i < setupMin || (spent < setupBudget && i < setupMax); i++ {
		runtime.GC()
		op := r.tr.newOp()
		id := r.tr.open(r.root, op, "setup")
		var total time.Duration
		step := func(name string, f func() error) error {
			sid := r.tr.open(id, op, name)
			t := time.Now()
			err := f()
			total += time.Since(t)
			r.tr.close(sid, nil)
			return err
		}
		err := fn(step)
		r.tr.close(id, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, total.Seconds())
		spent += total
	}
	return nil
}

// startWindow opens the measured window: ops run while more reports true.
func (r *run) startWindow() { r.deadline = time.Now().Add(r.seconds) }

// op runs fn as one operation named name. It counts as attempted, and as
// failed when fn returns an error; with measured set, its latency is one
// sample of the workload's op metrics. It is safe for concurrent use. In a
// traced run it records the op span, the phase spans tiled from the op's
// progress events, and the allocation and GC-cycle deltas around it (which,
// under concurrent ops, include the other ops' share).
func (r *run) op(name string, measured bool, fn func(o *opCtx) error) {
	o := &opCtx{tr: r.tr}
	var id, op int
	var alloc0, gc0 float64
	if r.tr != nil {
		o.counters = map[string]float64{}
		if measured {
			o.counters["measured"] = 1
		}
		alloc0, gc0 = runtimeSample()
		op = r.tr.newOp()
		id = r.tr.open(r.root, op, name)
	}
	start := time.Now()
	err := fn(o)
	d := time.Since(start)
	r.mu.Lock()
	r.rp.attempted++
	if err != nil {
		r.rp.fail("%s: %v", name, err)
	}
	if measured {
		r.lat = append(r.lat, ms(d))
	}
	r.mu.Unlock()
	if r.tr != nil {
		alloc1, gc1 := runtimeSample()
		o.counters["alloc_bytes"] = alloc1 - alloc0
		o.counters["gc_cycles"] = gc1 - gc0
		span := r.tr.close(id, o.counters)
		for _, ph := range phaseSpans(span.Start, span.End, o.events) {
			ph.Parent, ph.Op = id, op
			r.tr.add(ph)
		}
	}
}

// endToEnd reduces the run's measurements to the end-to-end metrics.
func (r *run) endToEnd() {
	rp := r.rp
	rp.set("setup_s", median(r.setups), len(r.setups))
	rp.set("op_p50_ms", median(r.lat), len(r.lat))
	q, v := tail(r.lat)
	rp.set("op_tail_ms", v, len(r.lat))
	rp.note("op_tail_ms", fmtPercentile(q))
	rss := r.rssMiB
	if rss == 0 {
		rss = selfPeakRSSMiB()
	}
	rp.set("peak_rss_mib", rss, 1)
	rp.set("redemption", median(r.rates), len(r.rates))
	if len(r.rates) > 0 {
		rp.note("redemption", fmt.Sprintf("first %v", r.rates[0]))
	}
}

// selfPeakRSSMiB is this process's peak resident set size.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
