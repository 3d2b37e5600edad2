package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"s3crm"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{1, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.9}, {20000, 0.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q, v := tail(xs)
		if q != tc.wantQ {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, q, tc.wantQ)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if q > 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%v=%v leaves %d samples beyond it, want ≥ 10", tc.n, 100*q, v, beyond)
		}
	}
}

func ev(at int64, call uint64, phase string) timedEvent {
	return timedEvent{at: at, ev: s3crm.Event{Call: call, Phase: phase}}
}

type phaseSpan struct {
	name       string
	start, end int64
	steps      float64
}

func summarize(spans []Span, call uint64) []phaseSpan {
	var out []phaseSpan
	for _, s := range spans {
		if uint64(s.Counters["call"]) == call {
			out = append(out, phaseSpan{s.Name, s.Start, s.End, s.Counters["steps"]})
		}
	}
	return out
}

func TestPhaseSpansTileTheOp(t *testing.T) {
	// No gpi event: the traversal's time folds into the scm span.
	evs := []timedEvent{
		ev(110, 1, "pivot"), ev(120, 1, "id"), ev(130, 1, "id"), ev(140, 1, "select"), ev(160, 1, "scm"),
	}
	got := summarize(phaseSpans(100, 200, evs), 1)
	want := []phaseSpan{
		{"core.pivot", 100, 110, 1}, {"core.id", 110, 130, 2}, {"core.select", 130, 140, 1},
		{"core.scm", 140, 160, 1}, {"core.finish", 160, 200, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("spans %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPhaseSpansDemultiplexInterleavedCalls(t *testing.T) {
	evs := []timedEvent{
		ev(5, 7, "pivot"), ev(6, 8, "pivot"), ev(10, 7, "sketch"), ev(12, 8, "id"),
		ev(14, 7, "sketch"), ev(15, 8, "id"), ev(18, 8, "select"),
	}
	spans := phaseSpans(0, 20, evs)
	for call, want := range map[uint64][]phaseSpan{
		7: {{"core.pivot", 0, 5, 1}, {"sketch.phase", 5, 14, 2}, {"core.finish", 14, 20, 0}},
		8: {{"core.pivot", 0, 6, 1}, {"core.id", 6, 15, 2}, {"core.select", 15, 18, 1}, {"core.finish", 18, 20, 0}},
	} {
		got := summarize(spans, call)
		if len(got) != len(want) {
			t.Fatalf("call %d: spans %+v, want %+v", call, got, want)
		}
		var covered int64
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("call %d span %d = %+v, want %+v", call, i, got[i], want[i])
			}
			covered += got[i].end - got[i].start
		}
		if covered != 20 {
			t.Errorf("call %d: phases cover %d of 20", call, covered)
		}
	}
}

func TestPhaseSpansNeedEvents(t *testing.T) {
	if got := phaseSpans(0, 10, nil); len(got) != 0 {
		t.Errorf("an op with no events got phase spans %+v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{
		{Start: 10, End: 30}, {Start: 20, End: 50}, // overlap counted once
		{Start: 60, End: 70},
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("self time %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One caller at 100 requests/s: request 0 stalls for 60 ms, so request 1
	// (due at 10 ms) cannot be sent before 60 ms and must be charged the
	// wait, and the schedule does not slip behind the stall. Request 7 (due
	// at 70 ms) finds the caller idle, so it is timed from when it went out.
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	lat := map[int]time.Duration{}
	dues, froms := map[int]time.Time{}, map[int]time.Time{}
	openLoop(context.Background(), 8, 100, 1, func(k int, due, from time.Time) {
		if k == 0 {
			time.Sleep(stall)
		}
		mu.Lock()
		lat[k], dues[k], froms[k] = time.Since(from), due, from
		mu.Unlock()
	})
	if len(lat) != 8 {
		t.Fatalf("%d requests issued, want 8", len(lat))
	}
	if lat[1] < stall-10*time.Millisecond-time.Millisecond {
		t.Errorf("request 1 latency %v does not include the %v it waited behind the stall", lat[1], stall-10*time.Millisecond)
	}
	if froms[7].Before(dues[7]) {
		t.Errorf("request 7, sent by an idle caller, timed from %v before its due time", dues[7].Sub(froms[7]))
	}
	for k := 1; k < 8; k++ {
		if gap := dues[k].Sub(dues[k-1]); gap < 10*time.Millisecond-time.Microsecond || gap > 10*time.Millisecond+time.Microsecond {
			t.Errorf("requests %d and %d due %v apart, want 10ms", k-1, k, gap)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, defs []metricDef) {
		var want []metric
		for _, d := range defs {
			want = append(want, metric{d.name, d.unit})
		}
		key := func(ms []metric) func(i, j int) bool { return func(i, j int) bool { return ms[i].Name < ms[j].Name } }
		sort.Slice(got, key(got))
		sort.Slice(want, key(want))
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, the program %+v", what, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
