package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"s3crm"
	"s3crm/internal/serve"
)

func testServer(t *testing.T, opts ...s3crm.Option) *server {
	t.Helper()
	problem, err := s3crm.GenerateDataset("Facebook", 100, 3) // 40 users
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := problem.NewCampaign(append([]s3crm.Option{
		s3crm.WithSamples(100), s3crm.WithSeed(3), s3crm.WithCandidateCap(20),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return &server{problem: problem, campaign: campaign,
		defaults: defaults{Engine: "mc", Samples: 100}}
}

func do(t *testing.T, h http.HandlerFunc, method, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, "/", strings.NewReader(body))
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	w := do(t, testServer(t).healthz, http.MethodGet, "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
}

func TestInfo(t *testing.T) {
	s := testServer(t)
	w := do(t, s.info, http.MethodGet, "")
	var got map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if int(got["users"].(float64)) != s.problem.Users() || got["users"].(float64) <= 0 {
		t.Fatalf("info users = %v, want %d", got["users"], s.problem.Users())
	}
}

func TestSolveEndpoint(t *testing.T) {
	s := testServer(t)
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","engine":"worldcache","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Result struct {
			Algorithm      string
			RedemptionRate float64
			Seeds          []int
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Result.Algorithm != "S3CA" || got.Result.RedemptionRate <= 0 || len(got.Result.Seeds) == 0 {
		t.Fatalf("solve result: %+v", got.Result)
	}

	// Baselines run through the same endpoint.
	w = do(t, s.solve, http.MethodPost, `{"algorithm":"IM-U","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("baseline solve: %d %s", w.Code, w.Body.String())
	}

	// Per-request triggering-model selection: LT solves end-to-end.
	w = do(t, s.solve, http.MethodPost, `{"model":"lt","engine":"worldcache","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("lt solve: %d %s", w.Code, w.Body.String())
	}
}

// TestSolveReportsSketchCertificate: an ssr /solve answer carries the SSR
// certificate's sketch_* fields, and a worldcache answer omits them.
func TestSolveReportsSketchCertificate(t *testing.T) {
	s := testServer(t)
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","engine":"ssr","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ssr solve: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Result map[string]any
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	rounds, _ := got.Result["sketch_rounds"].(float64)
	samples, _ := got.Result["sketch_samples"].(float64)
	lb, _ := got.Result["sketch_lb"].(float64)
	ub, _ := got.Result["sketch_ub"].(float64)
	if rounds < 1 || samples <= 0 || !(lb <= ub) {
		t.Errorf("ssr /solve certificate: %s", w.Body.String())
	}
	w = do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","engine":"worldcache","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("worldcache solve: %d %s", w.Code, w.Body.String())
	}
	if strings.Contains(w.Body.String(), `"sketch_`) {
		t.Errorf("worldcache /solve answer carries sketch fields: %s", w.Body.String())
	}
}

// TestSolveRejectsUnknownNames: unknown engine and triggering-model values
// in POST /solve answer 400 with exactly the functional options' "want one
// of" message, so clients see the valid set. The retired oracle fields
// (diffusion, eval_mode, exhaustive_id) are unknown fields now: 400, never
// a server error.
func TestSolveRejectsUnknownNames(t *testing.T) {
	s := testServer(t)
	cases := []struct{ body, want string }{
		{`{"engine":"warp"}`, `unknown engine "warp" (want one of [mc worldcache ssr auto])`},
		{`{"engine":"sketch"}`, `unknown engine "sketch" (want one of [mc worldcache ssr auto])`},
		{`{"model":"voter"}`, `unknown triggering model "voter" (want one of [ic lt])`},
		{`{"diffusion":"hash"}`, `unknown field "diffusion"`},
		{`{"eval_mode":"scalar"}`, `unknown field "eval_mode"`},
		{`{"exhaustive_id":true}`, `unknown field "exhaustive_id"`},
	}
	for _, tc := range cases {
		w := do(t, s.solve, http.MethodPost, tc.body)
		var got struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(got.Error, tc.want) {
			t.Errorf("%s: got %d %q, want 400 containing %q", tc.body, w.Code, got.Error, tc.want)
		}
	}
}

// TestRejectsNegativeNumbers: a negative count or timeout — or a sample
// count too large to allocate — is forwarded to its validator and answers
// 400 on every endpoint that takes it, instead of silently running with the
// campaign default or exhausting memory.
func TestRejectsNegativeNumbers(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		h    http.HandlerFunc
		body string
		want string
	}{
		{"solve/samples", s.solve, `{"samples":-5}`, "samples must be positive, got -5"},
		{"solve/workers", s.solve, `{"workers":-1}`, "workers must be non-negative, got -1"},
		{"solve/candidate_cap", s.solve, `{"algorithm":"IM-U","candidate_cap":-2}`, "candidate cap must be non-negative, got -2"},
		{"solve/limited_k", s.solve, `{"algorithm":"IM-L","limited_k":-3}`, "limited-K must be non-negative, got -3"},
		{"solve/gpi_limit", s.solve, `{"gpi_limit":-4}`, "GPI limit must be non-negative, got -4"},
		{"solve/timeout_ms", s.solve, `{"timeout_ms":-1}`, "timeout_ms must be non-negative, got -1"},
		{"evaluate/samples", s.evaluate, `{"deployments":[{"seeds":[0]}],"samples":-5}`, "samples must be positive, got -5"},
		{"solve/samples_huge", s.solve, `{"samples":2000000000}`, "samples must be at most 1048576, got 2000000000"},
		{"evaluate/samples_huge", s.evaluate, `{"deployments":[{"seeds":[0]}],"samples":2000000000}`, "samples must be at most 1048576, got 2000000000"},
		{"evaluate/timeout_ms", s.evaluate, `{"deployments":[{"seeds":[0]}],"timeout_ms":-1}`, "timeout_ms must be non-negative, got -1"},
		{"append/timeout_ms", s.graphAppend, `{"edges":[{"from":0,"to":1,"p":0.1}],"timeout_ms":-1}`, "timeout_ms must be non-negative, got -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, tc.h, http.MethodPost, tc.body)
			var got struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if w.Code != http.StatusBadRequest || !strings.Contains(got.Error, tc.want) {
				t.Errorf("%s: got %d %q, want 400 containing %q", tc.body, w.Code, got.Error, tc.want)
			}
		})
	}
	if users, edges := s.campaign.Users(), s.campaign.Edges(); users != s.problem.Users() || edges != s.problem.Edges() {
		t.Fatalf("rejected append changed the graph: %d users, %d edges", users, edges)
	}
	if w := do(t, s.evaluate, http.MethodPost, `{"deployments":[{"seeds":[0]}]}`); w.Code != http.StatusOK {
		t.Fatalf("daemon stopped serving after the rejections: %d %s", w.Code, w.Body.String())
	}
}

func TestSolveStreaming(t *testing.T) {
	s := testServer(t)
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","seed":7,"stream":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stream solve: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want events plus a result", len(lines))
	}
	events := 0
	for _, line := range lines[:len(lines)-1] {
		var e struct {
			Event *s3crm.Event `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Event == nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Event.Algorithm != "S3CA" || e.Event.Phase == "" {
			t.Fatalf("malformed event: %+v", e.Event)
		}
		events++
	}
	var final struct {
		Result *json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || final.Result == nil {
		t.Fatalf("bad final line %q: %v", lines[len(lines)-1], err)
	}
	if events == 0 {
		t.Fatal("stream carried no events")
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"deployments":[{"seeds":[0],"coupons":{"0":2}},{"seeds":[1,2]}],"seed":7}`
	w := do(t, s.evaluate, http.MethodPost, body)
	if w.Code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Results []struct {
			Benefit float64
			Seeds   []int
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || got.Results[0].Benefit <= 0 ||
		len(got.Results[1].Seeds) != 2 {
		t.Fatalf("evaluate results: %+v", got.Results)
	}

	w = do(t, s.evaluate, http.MethodPost, `{"deployments":[{"seeds":[999]}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range seed: %d %s", w.Code, w.Body.String())
	}
	w = do(t, s.evaluate, http.MethodPost, `{}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", w.Code, w.Body.String())
	}
}

// TestStatusFor: call errors map to the HTTP statuses clients key retries
// on — 504 for deadlines (even when only the context expired), 503 for
// cancellation, 400 for everything else.
func TestStatusFor(t *testing.T) {
	bg := context.Background()
	if got := statusFor(bg, context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Errorf("DeadlineExceeded -> %d, want 504", got)
	}
	if got := statusFor(bg, fmt.Errorf("solve: %w", context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Errorf("wrapped DeadlineExceeded -> %d, want 504", got)
	}
	if got := statusFor(bg, context.Canceled); got != http.StatusServiceUnavailable {
		t.Errorf("Canceled -> %d, want 503", got)
	}
	if got := statusFor(bg, errors.New("unknown engine")); got != http.StatusBadRequest {
		t.Errorf("validation error -> %d, want 400", got)
	}
	// An engine may surface its own error value after the request deadline
	// passed; the expired context still decides the status.
	ctx, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel()
	<-ctx.Done()
	if got := statusFor(ctx, errors.New("evaluation aborted")); got != http.StatusGatewayTimeout {
		t.Errorf("expired ctx + opaque error -> %d, want 504", got)
	}
}

// TestDecodeRejectsUnknownFields: a typoed field fails loudly with 400
// instead of silently running with defaults, on both POST endpoints.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	s := testServer(t)
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","sample":5}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unknown field") {
		t.Fatalf("solve with typo: %d %s", w.Code, w.Body.String())
	}
	w = do(t, s.evaluate, http.MethodPost, `{"deployment":[{"seeds":[0]}]}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "unknown field") {
		t.Fatalf("evaluate with typo: %d %s", w.Code, w.Body.String())
	}
}

func TestDecodeRejectsOversizedBody(t *testing.T) {
	s := testServer(t)
	s.maxBody = 64
	body := `{"algorithm":"S3CA","seed":7` + strings.Repeat(" ", 200) + `}`
	w := do(t, s.solve, http.MethodPost, body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", w.Code, w.Body.String())
	}
}

// TestShedThenRetry: with admission capacity saturated and no queue, a
// solve is shed with 429 and a Retry-After; once the slot frees, the same
// request succeeds. This is the shed-then-retry loop cmd/loadgen drives at
// scale.
func TestShedThenRetry(t *testing.T) {
	s := testServer(t)
	s.limiter = serve.NewLimiter(1, 0, time.Second)
	s.solveWeight, s.evaluateWeight = 1, 1
	h := s.mux()

	hold, err := s.limiter.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{"seed":7}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	w := post()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: %d %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Probes stay reachable while solves are shed.
	req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	sw := httptest.NewRecorder()
	h.ServeHTTP(sw, req)
	if sw.Code != http.StatusOK || !strings.Contains(sw.Body.String(), `"shed":1`) {
		t.Fatalf("statusz during overload: %d %s", sw.Code, sw.Body.String())
	}

	hold()
	if w := post(); w.Code != http.StatusOK {
		t.Fatalf("retry after release: %d %s", w.Code, w.Body.String())
	}
}

// TestQueueDeadline503: a request that waits out the admission queue
// deadline is shed with 503, not left hanging.
func TestQueueDeadline503(t *testing.T) {
	s := testServer(t)
	s.limiter = serve.NewLimiter(1, 4, 10*time.Millisecond)
	s.solveWeight, s.evaluateWeight = 1, 1
	h := s.mux()

	hold, err := s.limiter.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{"seed":7}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue-deadline solve: %d %s, want 503", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if c := s.limiter.Counters(); c.ShedDeadline != 1 {
		t.Fatalf("limiter counters: %+v", c)
	}
}

// TestDegradedSolve: with the daemon's degradation hook active, a solve
// reports the downgraded sample count, the degraded flag and a non-zero
// standard error, and /statusz counts it. A pressure-0 rung makes the
// downgrade deterministic; pressure-driven triggering is covered by
// internal/serve and the loadgen smoke run.
func TestDegradedSolve(t *testing.T) {
	ladder, err := serve.ParseLadder("0:40")
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t,
		s3crm.WithDegradation(flooredLadder(ladder, 25, func() float64 { return 0 })))
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","engine":"worldcache","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded solve: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Result struct {
			RedemptionRate   float64
			EffectiveSamples int     `json:"effective_samples"`
			StdErr           float64 `json:"stderr"`
			Degraded         bool    `json:"degraded"`
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	r := got.Result
	if !r.Degraded || r.EffectiveSamples != 40 || r.StdErr <= 0 || r.RedemptionRate <= 0 {
		t.Fatalf("degraded result: %+v", r)
	}
	if s.degraded.Load() != 1 {
		t.Fatalf("degraded counter = %d, want 1", s.degraded.Load())
	}
}

// TestFlooredLadder pins the -min-samples floor of the daemon's hook: a
// rung above the floor applies as-is, a rung below it runs at the floor,
// and the floor never raises a request that is already below it.
func TestFlooredLadder(t *testing.T) {
	ladder, err := serve.ParseLadder("0.25:250,0.75:10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		requested int
		pressure  float64
		want      int
	}{
		{1000, 0, 1000}, // no rung reached
		{1000, 0.5, 250},
		{1000, 0.9, 50}, // rung 10 floored at 50
		{30, 0.9, 30},   // below the floor already: never raised
		{40, 0, 40},
	} {
		hook := flooredLadder(ladder, 50, func() float64 { return tc.pressure })
		if got := hook(tc.requested); got != tc.want {
			t.Errorf("requested %d at pressure %v: got %d, want %d", tc.requested, tc.pressure, got, tc.want)
		}
	}
	if got := flooredLadder(nil, 50, func() float64 { return 1 })(1000); got != 1000 {
		t.Errorf("ladder off: got %d, want 1000", got)
	}
}

// TestUndegradedSolveReportsPrecision: even without degradation, responses
// carry effective_samples and stderr so clients always see the precision
// they got.
func TestUndegradedSolveReportsPrecision(t *testing.T) {
	s := testServer(t)
	w := do(t, s.solve, http.MethodPost, `{"algorithm":"S3CA","engine":"worldcache","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Result struct {
			EffectiveSamples int     `json:"effective_samples"`
			StdErr           float64 `json:"stderr"`
			Degraded         bool    `json:"degraded"`
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Result.Degraded || got.Result.EffectiveSamples != 100 || got.Result.StdErr <= 0 {
		t.Fatalf("full-precision result: %+v", got.Result)
	}
}

// TestStreamMidStreamError: when the client is gone (or a deadline fires)
// mid-solve, an NDJSON stream that already committed its 200 ends with an
// {"error": …} line rather than a truncated result.
func TestStreamMidStreamError(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already disconnected
	req := httptest.NewRequest(http.MethodPost, "/solve",
		strings.NewReader(`{"algorithm":"S3CA","seed":7,"stream":true}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.solve(w, req)
	if w.Code != http.StatusOK { // NDJSON commits the status before solving
		t.Fatalf("stream status: %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	last := lines[len(lines)-1]
	var final struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil || final.Error == "" {
		t.Fatalf("final stream line %q, want an error line", last)
	}
}

// TestFaultInjectionThroughMux: with -faults error=1 every solve fails
// with an injected, header-tagged 500, while probes bypass injection.
func TestFaultInjectionThroughMux(t *testing.T) {
	s := testServer(t)
	s.limiter = serve.NewLimiter(4, 0, time.Second)
	s.solveWeight, s.evaluateWeight = 1, 1
	s.faults = serve.NewFaultInjector(serve.FaultConfig{ErrorP: 1, Seed: 7})
	h := s.mux()

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{"seed":7}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError || w.Header().Get(serve.InjectedFaultHeader) != "error" {
		t.Fatalf("injected fault: %d, header %q", w.Code, w.Header().Get(serve.InjectedFaultHeader))
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz behind fault injection: %d", w.Code)
	}
	if c := s.faults.Counters(); c.Errors != 1 {
		t.Fatalf("fault counters: %+v", c)
	}
}

// TestStatusz: the health endpoint reports admission, degradation and
// request counters as JSON.
func TestStatusz(t *testing.T) {
	s := testServer(t)
	s.limiter = serve.NewLimiter(8, 16, time.Second)
	s.started = time.Now()
	w := do(t, s.statusz, http.MethodGet, "")
	if w.Code != http.StatusOK {
		t.Fatalf("statusz: %d %s", w.Code, w.Body.String())
	}
	var got struct {
		Admission serve.Counters `json:"admission"`
		Shed      int64          `json:"shed"`
		Pressure  float64        `json:"pressure"`
		Degraded  int64          `json:"degraded"`
		Ladder    string         `json:"ladder"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Admission.Capacity != 8 || got.Shed != 0 || got.Ladder != "off" {
		t.Fatalf("statusz body: %+v (%s)", got, w.Body.String())
	}
}

// TestLoadProblemRejectsSeveralSources checks that naming more than one
// instance source is an error rather than a silent preference, with the
// text cmd/s3crm prints for the same mistake; no file is opened.
func TestLoadProblemRejectsSeveralSources(t *testing.T) {
	const want = "give only one of -dataset, -graph or -scenario"
	for _, c := range []struct{ dataset, graph, scenario string }{
		{"Facebook", "edges.txt", ""},
		{"Facebook", "", "scenario.json"},
		{"", "edges.txt", "scenario.json"},
		{"Facebook", "edges.txt", "scenario.json"},
	} {
		p, err := loadProblem(c.dataset, 100, c.graph, "", 10, c.scenario, 3, false)
		if err == nil || err.Error() != want {
			t.Errorf("dataset %q, graph %q, scenario %q: problem %v, error %v; want %q", c.dataset, c.graph, c.scenario, p != nil, err, want)
		}
	}
	if _, err := loadProblem("Facebook", 100, "", "", 0, "", 3, false); err != nil {
		t.Fatalf("one source: %v", err)
	}
}
