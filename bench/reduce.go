package main

import (
	"math"
	"strings"
)

// opSpans is one op (or set-up) span with its children.
type opSpans struct {
	top  Span
	kids []Span
}

// kidSum sums f over the children named name, reporting whether any exist.
func (o opSpans) kidSum(name string, f func(Span) float64) (float64, bool) {
	var sum float64
	found := false
	for _, k := range o.kids {
		if k.Name == name {
			sum += f(k)
			found = true
		}
	}
	return sum, found
}

func durMs(s Span) float64 { return float64(s.dur()) / 1e6 }

func counter(name string) func(Span) float64 {
	return func(s Span) float64 { return s.Counters[name] }
}

// isPhase reports whether a span is a solver phase tiled from progress
// events.
func isPhase(s Span) bool { return strings.HasPrefix(s.Name, "core.") || s.Name == "sketch.phase" }

// reduce turns the traced run's spans into the per-layer metrics — each the
// median over the ops that reach the layer, 0 where none does — and checks
// that every op's phase spans tile it to within 1%.
func (r *run) reduce() {
	var ops []opSpans
	index := map[int]int{}
	for _, s := range r.tr.spans {
		if s.Op == 0 {
			continue
		}
		i, ok := index[s.Op]
		if !ok {
			i = len(ops)
			index[s.Op] = i
			ops = append(ops, opSpans{})
		}
		if s.Parent == r.root {
			ops[i].top = s
		} else {
			ops[i].kids = append(ops[i].kids, s)
		}
	}
	rp := r.rp
	med := func(name string, xs []float64) { rp.set(name, median(xs), len(xs)) }
	// over collects f over the ops for which it reports a value.
	over := func(f func(o opSpans) (float64, bool)) []float64 {
		var xs []float64
		for _, o := range ops {
			if v, ok := f(o); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	kids := func(name string, f func(Span) float64) []float64 {
		return over(func(o opSpans) (float64, bool) { return o.kidSum(name, f) })
	}
	// The solver-phase metrics leave out the phases of warm re-solves
	// (update ops), which s3crm.resolve_* and sketch.reuse_frac summarise:
	// where a workload runs both, they would mix two different operations.
	solves := func(f func(o opSpans) (float64, bool)) []float64 {
		return over(func(o opSpans) (float64, bool) {
			v, ok := f(o)
			return v, ok && o.top.Name != "update"
		})
	}
	phase := func(name string, f func(Span) float64) []float64 {
		return solves(func(o opSpans) (float64, bool) { return o.kidSum(name, f) })
	}
	tops := func(name string, f func(Span) float64) []float64 {
		return over(func(o opSpans) (float64, bool) { return f(o.top), o.top.Name == name })
	}
	withCounter := func(c string) []float64 {
		return over(func(o opSpans) (float64, bool) {
			v, ok := o.top.Counters[c]
			return v / 1e6, ok
		})
	}
	p50tail := func(name string, xs []float64) {
		med(name+"_p50_ms", xs)
		q, v := tail(xs)
		rp.set(name+"_tail_ms", v, len(xs))
		rp.note(name+"_tail_ms", fmtPercentile(q))
	}

	for _, step := range []string{"gio.load", "graph.dataset", "graph.holdout", "serve.start"} {
		med(step+"_ms", kids(step, durMs))
	}

	for _, ph := range []string{"pivot", "id", "select", "gpi", "scm", "finish"} {
		med("core."+ph+"_ms", phase("core."+ph, durMs))
		if ph != "pivot" && ph != "finish" {
			med("core."+ph+"_steps", phase("core."+ph, counter("steps")))
		}
	}
	med("core.candidate_evals", phase("core.id", counter("candidate_evals")))
	med("core.candidate_evals_per_step", solves(func(o opSpans) (float64, bool) {
		evals, ok := o.kidSum("core.id", counter("candidate_evals"))
		steps, _ := o.kidSum("core.id", counter("steps"))
		return evals / steps, ok && steps > 0
	}))
	med("core.evaluations", solves(func(o opSpans) (float64, bool) {
		most, found := 0.0, false
		for _, k := range o.kids {
			if isPhase(k) {
				most, found = math.Max(most, k.Counters["evaluations"]), true
			}
		}
		return most, found
	}))

	med("sketch.phase_ms", phase("sketch.phase", durMs))
	build := func(o opSpans) (float64, bool) {
		_, ok := o.kidSum("sketch.phase", durMs)
		return o.top.Counters["sketch_build_ns"] / 1e6, ok
	}
	med("sketch.build_ms", solves(build))
	med("sketch.rest_ms", solves(func(o opSpans) (float64, bool) {
		d, ok := o.kidSum("sketch.phase", durMs)
		b, _ := build(o)
		return d - b, ok
	}))
	med("sketch.rounds", phase("sketch.phase", counter("steps")))
	med("sketch.samples", phase("sketch.phase", counter("samples")))
	med("sketch.bound_gap", phase("sketch.phase", counter("bound_gap")))
	med("sketch.reuse_frac", over(func(o opSpans) (float64, bool) {
		kept, redrawn := o.top.Counters["sketch_reused"], o.top.Counters["sketch_redrawn"]
		return kept / (kept + redrawn), kept+redrawn > 0
	}))
	med("sketch.redrawn", over(func(o opSpans) (float64, bool) {
		kept, redrawn := o.top.Counters["sketch_reused"], o.top.Counters["sketch_redrawn"]
		return redrawn, kept+redrawn > 0
	}))

	med("diffusion.evaluate_ms", tops("evaluate", durMs))
	med("diffusion.evaluate_alloc_kib", tops("evaluate", func(s Span) float64 { return s.Counters["alloc_bytes"] / 1024 }))

	med("s3crm.new_ms", withCounter("new_ns"))
	p50tail("s3crm.apply", withCounter("apply_ns"))
	p50tail("s3crm.resolve", withCounter("resolve_ns"))
	med("s3crm.snapshots_patched", tops("update", counter("patched")))
	// Compactions and dropped pools per replayed stream (per round).
	rounds := max(len(tops("round-solve", durMs)), 1)
	var compactions, dropped float64
	for _, o := range ops {
		if o.top.Name == "update" {
			compactions += o.top.Counters["compacted"]
			dropped += o.top.Counters["pools_dropped"]
		}
	}
	rp.set("s3crm.compactions", compactions/float64(rounds), rounds)
	rp.set("s3crm.pools_dropped", dropped/float64(rounds), rounds)

	closedHTTP := func(name string) []float64 {
		return over(func(o opSpans) (float64, bool) {
			return durMs(o.top), o.top.Name == name && o.top.Counters["open"] == 0
		})
	}
	for _, kind := range []string{"solve", "evaluate"} {
		httpMs := closedHTTP("http." + kind)
		med("serve."+kind+"_p50_ms", httpMs)
		if inproc := tops("replay."+kind, durMs); len(inproc) > 0 && len(httpMs) > 0 {
			rp.set("serve."+kind+"_overhead_ms", median(httpMs)-median(inproc), len(httpMs))
		}
	}

	// The runtime counters of the workload's measured ops; serve-mix times
	// HTTP requests, so its in-process replay stands in.
	timed := func(o opSpans) bool {
		return o.top.Counters["measured"] == 1 || strings.HasPrefix(o.top.Name, "replay.")
	}
	med("runtime.alloc_mib_per_op", over(func(o opSpans) (float64, bool) {
		return o.top.Counters["alloc_bytes"] / (1 << 20), timed(o)
	}))
	gcs := over(func(o opSpans) (float64, bool) { return o.top.Counters["gc_cycles"], timed(o) })
	var gcSum float64
	for _, g := range gcs {
		gcSum += g
	}
	rp.set("runtime.gc_cycles_per_op", gcSum/float64(max(len(gcs), 1)), len(gcs))

	for _, o := range ops {
		r.checkTiling(o)
	}
}

// checkTiling checks that each call's phase spans leave at most 1% of its
// op's time uncovered: the op's self time under them.
func (r *run) checkTiling(o opSpans) {
	byCall := map[float64][]Span{}
	for _, k := range o.kids {
		if isPhase(k) {
			byCall[k.Counters["call"]] = append(byCall[k.Counters["call"]], k)
		}
	}
	for call, phases := range byCall {
		self := selfTime(o.top, phases)
		r.rp.check(float64(self) <= 0.01*float64(o.top.dur()),
			"op %q call %v: phases leave %d of %d ns uncovered", o.top.Name, call, self, o.top.dur())
	}
}
