package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"s3crm"
)

// Span is one timed interval of a traced run. Times are nanoseconds since
// the run started. The tree is workload → setup or op → setup step or solver
// phase; Op groups a setup or op span with its children.
type Span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run writes them out. A nil
// *tracer is an untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// open starts a span now and returns its id.
func (t *tracer) open(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(Span{Parent: parent, Op: op, Name: name, Start: t.now()})
}

// close ends span id now, attaching counters, and returns the span.
func (t *tracer) close(id int, counters map[string]float64) Span {
	if t == nil {
		return Span{}
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Counters = end, counters
	return *s
}

// add records a span and returns its id.
func (t *tracer) add(s Span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedEvent is a solver progress event stamped with its arrival time.
type timedEvent struct {
	at int64
	ev s3crm.Event
}

// phaseName maps a progress-event phase to its span name: the SSR sample
// phase belongs to the sketch layer, every other solver phase to core.
func phaseName(phase string) string {
	if phase == "sketch" {
		return "sketch.phase"
	}
	return "core." + phase
}

// phaseSpans tiles the interval [start, end] of one op with phase spans
// built from the progress events its calls emitted. Events are grouped by
// Event.Call, so calls sharing one sink are told apart, and each call's
// events tile the whole interval: a phase's span runs from the previous
// event (or start) to the phase's last event, and "core.finish" covers the
// rest up to end. A phase that emits no event folds into the next span.
// Each span counts its events as "steps" and carries the solver counters of
// its last event.
func phaseSpans(start, end int64, evs []timedEvent) []Span {
	var calls []uint64
	byCall := map[uint64][]timedEvent{}
	for _, e := range evs {
		if _, ok := byCall[e.ev.Call]; !ok {
			calls = append(calls, e.ev.Call)
		}
		byCall[e.ev.Call] = append(byCall[e.ev.Call], e)
	}
	var out []Span
	for _, call := range calls {
		ce := byCall[call]
		sort.SliceStable(ce, func(i, j int) bool { return ce[i].at < ce[j].at })
		prev, steps := start, 0
		for i, e := range ce {
			steps++
			if i+1 < len(ce) && ce[i+1].ev.Phase == e.ev.Phase {
				continue
			}
			out = append(out, Span{
				Name: phaseName(e.ev.Phase), Start: prev, End: e.at,
				Counters: map[string]float64{
					"call":            float64(call),
					"steps":           float64(steps),
					"candidate_evals": float64(e.ev.CandidateEvals),
					"evaluations":     float64(e.ev.Evaluations),
					"samples":         float64(e.ev.Samples),
					"bound_gap":       e.ev.BoundGap,
				},
			})
			prev, steps = e.at, 0
		}
		out = append(out, Span{Name: "core.finish", Start: prev, End: end,
			Counters: map[string]float64{"call": float64(call)}})
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children are counted once).
func selfTime(parent Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64 = 0, parent.Start
	for _, x := range ivs {
		if x.hi <= reach {
			continue
		}
		covered += x.hi - max(x.lo, reach)
		reach = x.hi
	}
	return parent.dur() - covered
}

// opCtx is handed to each timed operation. In a traced run it supplies the
// progress option that records the op's solver events and collects counters
// for the op span; in an untraced run both are no-ops.
type opCtx struct {
	tr       *tracer
	mu       sync.Mutex
	events   []timedEvent
	counters map[string]float64
}

// progress returns the call options that record the call's progress events.
func (o *opCtx) progress() []s3crm.Option {
	if o.tr == nil {
		return nil
	}
	return []s3crm.Option{s3crm.WithProgress(func(e s3crm.Event) {
		at := o.tr.now()
		o.mu.Lock()
		o.events = append(o.events, timedEvent{at, e})
		o.mu.Unlock()
	})}
}

// count adds v to the op span's counter k.
func (o *opCtx) count(k string, v float64) {
	if o.tr != nil {
		o.counters[k] += v
	}
}

// runtimeSample reads the Go runtime's cumulative allocation and GC-cycle
// counters; runtime/metrics reads them without stopping the world.
func runtimeSample() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}
