// Command s3crmd serves one S3CRM instance over HTTP — the Campaign API as
// a long-running service. The instance is loaded once at startup and a
// single concurrency-safe Campaign serves every request, so the evaluation
// engine, graph indexes and materialized live-edge worlds are shared across
// the whole process lifetime.
//
//	s3crmd -addr :8080 -dataset Epinions -scale 400
//	s3crmd -addr :8080 -graph soc-Epinions1.txt.gz -budget 5000
//
// Endpoints (all request fields optional unless noted):
//
//	GET  /healthz    liveness probe
//	GET  /info       instance shape and campaign defaults
//	GET  /statusz    serving health: in-flight/queued/shed/degraded
//	                 counters, admission configuration and fault-injection
//	                 tallies
//	POST /solve      run one algorithm. Body: {"algorithm": "S3CA",
//	                 "engine": "worldcache", "model": "lt", "samples": 1000,
//	                 "seed": 7, "workers": 4, "candidate_cap": 0,
//	                 "limited_k": 0, "gpi_limit": 0, "stream": false,
//	                 "timeout_ms": 0}. algorithm defaults to S3CA; any
//	                 baseline name (IM-U, IM-L, PM-U, PM-L, IM-S) works.
//	                 Unknown engine/model values, negative counts or
//	                 timeouts — and unknown fields — are rejected with 400;
//	                 oversized bodies with 413.
//	                 With "stream": true the response is NDJSON: one
//	                 {"event": …} line per solver progress event, then a
//	                 final {"result": …} line.
//	POST /evaluate   measure hand-built deployments in one batch against
//	                 shared Monte-Carlo samples. Body: {"deployments":
//	                 [{"seeds": [0], "coupons": {"0": 3}}], "engine": …}.
//	                 Returns {"results": […]} in input order.
//	POST /graph/append
//	                 append influence edges to the served network. Body:
//	                 {"edges": [{"from": 0, "to": 5, "p": 0.1}, …]}.
//	                 The campaign's warm engine state is patched, not
//	                 rebuilt (see DESIGN.md, "Dynamic graphs"); returns the
//	                 churn statistics and the new graph size. Endpoints
//	                 past the current user count grow the network.
//
// Overload safety (see DESIGN.md "Serving robustness"): requests pass an
// admission limiter — a weighted semaphore (-capacity; solves weigh
// -solve-weight, evaluates -evaluate-weight) with a bounded wait queue
// (-max-queue, -queue-timeout). A full queue answers 429 and a queue
// deadline 503, both with a Retry-After. Under measured queue pressure the
// degradation ladder (-degrade, floored by -min-samples) downgrades calls
// to fewer Monte-Carlo samples; downgraded responses carry "degraded":
// true, "effective_samples" and a widened "stderr". -faults injects
// deterministic latency/error/slow-body faults for load testing (see
// cmd/loadgen).
//
// Requests honour per-request engine selection and are cancelled when the
// client disconnects or the per-request timeout (-timeout by default,
// "timeout_ms" per request) expires; a cancelled solve aborts
// mid-iteration. SIGINT/SIGTERM shut the daemon down gracefully: the
// listener closes, in-flight requests drain for up to -drain, and whatever
// remains is aborted through its request context.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -debug listener
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"s3crm"
	"s3crm/internal/serve"
)

// flooredLadder is the daemon's degradation hook: the ladder's sample cap
// at the current queue pressure, floored at floor — a downgrade below the
// floor runs at min(floor, requested) instead, so the floor never raises a
// request.
func flooredLadder(ladder *serve.Ladder, floor int, pressure func() float64) func(requested int) int {
	return func(requested int) int {
		eff := ladder.Samples(requested, pressure())
		if eff < floor {
			eff = min(floor, requested)
		}
		return eff
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataset  = flag.String("dataset", "", "dataset profile to generate (Facebook, Epinions, Google+, Douban)")
		scale    = flag.Int("scale", 1, "down-scale divisor for the dataset profile")
		graphF   = flag.String("graph", "", "SNAP-style edge list file, plain or gzip (alternative to -dataset)")
		probmod  = flag.String("probmodel", "", "influence probabilities for -graph: file, uniform, wc, trivalency (default: file column if present, else wc)")
		budget   = flag.Float64("budget", 0, "investment budget for -graph instances")
		scenario = flag.String("scenario", "", "saved scenario JSON (alternative to -dataset)")
		engine   = flag.String("engine", "mc", "default evaluation engine: "+s3crm.EngineUsage())
		epsilon  = flag.Float64("epsilon", 0.1, "default ssr engine approximation slack ε in (0,1)")
		delta    = flag.Float64("delta", 0.01, "default ssr engine failure probability δ in (0,1)")
		model    = flag.String("model", "ic", "default triggering model: ic (independent cascade), lt (linear threshold)")
		ltnorm   = flag.Bool("ltnorm", false, "scale -graph in-weights to sum ≤ 1 (the lt-model precondition; wc weights already satisfy it)")
		samples  = flag.Int("samples", 1000, "default Monte-Carlo samples per evaluation")
		seed     = flag.Uint64("seed", 1, "campaign random seed")
		workers  = flag.Int("workers", 0, "default parallel Monte-Carlo workers (0 = sequential)")
		cap      = flag.Int("candidates", 0, "default baseline greedy candidate cap (0 = all)")
		debug    = flag.String("debug", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6060; empty = off)")

		capacity   = flag.Int64("capacity", 8, "admission capacity: total weight of concurrently served requests")
		solveW     = flag.Int64("solve-weight", 4, "admission weight of a /solve request")
		evalW      = flag.Int64("evaluate-weight", 1, "admission weight of an /evaluate request")
		maxQueue   = flag.Int("max-queue", 64, "admitted-work wait queue length; 0 sheds immediately at capacity")
		queueTO    = flag.Duration("queue-timeout", 2*time.Second, "longest a request may wait for admission before a 503")
		degrade    = flag.String("degrade", "0.25:250,0.75:100", `degradation ladder "pressure:samples,…" ("off" to disable)`)
		minSamples = flag.Int("min-samples", 50, "floor the degradation ladder may not push samples below")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request timeout (0 = none; requests may override with timeout_ms)")
		maxBody    = flag.Int64("max-body", 1<<20, "largest accepted request body in bytes")
		faultSpec  = flag.String("faults", "", `fault injection "latency=20ms:0.5,error=0.05,slowbody=5ms:0.2" (empty = off)`)
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	)
	flag.Parse()

	problem, err := loadProblem(*dataset, *scale, *graphF, *probmod, *budget, *scenario, *seed, *ltnorm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crmd:", err)
		os.Exit(1)
	}
	ladder, err := serve.ParseLadder(*degrade)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crmd:", err)
		os.Exit(1)
	}
	if *minSamples < 0 {
		fmt.Fprintf(os.Stderr, "s3crmd: -min-samples must be non-negative, got %d\n", *minSamples)
		os.Exit(1)
	}
	faults, err := serve.ParseFaults(*faultSpec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crmd:", err)
		os.Exit(1)
	}
	limiter := serve.NewLimiter(*capacity, *maxQueue, *queueTO)
	campaign, err := problem.NewCampaign(
		s3crm.WithEngine(*engine),
		s3crm.WithModel(*model),
		s3crm.WithSamples(*samples),
		s3crm.WithSeed(*seed),
		s3crm.WithWorkers(*workers),
		s3crm.WithCandidateCap(*cap),
		s3crm.WithEpsilon(*epsilon),
		s3crm.WithDelta(*delta),
		s3crm.WithDegradation(flooredLadder(ladder, *minSamples, limiter.Pressure)),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crmd:", err)
		os.Exit(1)
	}

	srv := &server{
		problem: problem, campaign: campaign,
		defaults: defaults{
			Engine: *engine, Model: *model, Samples: *samples,
			Workers: *workers, Epsilon: *epsilon, Delta: *delta,
		},
		limiter: limiter, ladder: ladder, faults: faults,
		solveWeight: *solveW, evaluateWeight: *evalW,
		defaultTimeout: *timeout, maxBody: *maxBody,
		started: time.Now(),
	}

	if *debug != "" {
		// The pprof handlers register on http.DefaultServeMux at import;
		// serve them on a separate, typically loopback-only listener so
		// profiling is never exposed on the public address. A failed debug
		// bind disables profiling but must not kill the daemon.
		go func() {
			log.Printf("s3crmd: pprof debug listener on %s", *debug)
			if err := http.ListenAndServe(*debug, nil); err != nil {
				log.Printf("s3crmd: pprof debug listener failed: %v (profiling disabled, daemon keeps serving)", err)
			}
		}()
	}

	// baseCtx parents every request context: cancelling it aborts all
	// in-flight solves through the contexts already threaded into the
	// engines — the hard-stop lever behind the graceful drain.
	baseCtx, abortInflight := context.WithCancel(context.Background())
	defer abortInflight()
	hsrv := &http.Server{
		Addr:    *addr,
		Handler: srv.mux(),
		// No WriteTimeout: NDJSON solve streams legitimately outlive any
		// fixed bound; per-request deadlines come from -timeout instead.
		ReadTimeout:       60 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hsrv.ListenAndServe() }()
	log.Printf("s3crmd: serving %d users, %d edges, budget %.4g on %s (capacity %d, queue %d, ladder %s)",
		problem.Users(), problem.Edges(), problem.Budget(), *addr, *capacity, *maxQueue, ladder)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "s3crmd:", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("s3crmd: shutting down, draining in-flight requests (max %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hsrv.Shutdown(sctx); err != nil {
			log.Printf("s3crmd: drain deadline passed, aborting in-flight solves: %v", err)
			abortInflight()
			_ = hsrv.Close()
		}
		log.Printf("s3crmd: bye")
	}
}

func loadProblem(dataset string, scale int, graphFile, probModel string, budget float64, scenario string, seed uint64, ltnorm bool) (*s3crm.Problem, error) {
	switch {
	case scenario != "":
		f, err := os.Open(scenario)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return s3crm.LoadScenario(f)
	case graphFile != "":
		if budget <= 0 {
			return nil, fmt.Errorf("-graph instances need an explicit -budget")
		}
		problem, stats, err := s3crm.LoadGraphProblem(graphFile, s3crm.GraphConfig{
			Model: probModel, Budget: budget, Seed: seed, NormalizeLT: ltnorm,
		})
		if err != nil {
			return nil, err
		}
		log.Printf("s3crmd: loaded %s: %d users, %d edges (probmodel %s; dropped %d self-loops, %d duplicates)",
			graphFile, stats.Nodes, stats.Edges, stats.Model, stats.SelfLoops, stats.Duplicates)
		return problem, nil
	case dataset != "":
		return s3crm.GenerateDataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("need -dataset, -graph or -scenario")
	}
}

type defaults struct {
	Engine  string  `json:"engine"`
	Model   string  `json:"model"`
	Samples int     `json:"samples"`
	Workers int     `json:"workers"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

type server struct {
	problem  *s3crm.Problem
	campaign *s3crm.Campaign
	defaults defaults

	limiter        *serve.Limiter
	ladder         *serve.Ladder
	faults         *serve.FaultInjector
	solveWeight    int64
	evaluateWeight int64
	defaultTimeout time.Duration
	maxBody        int64
	started        time.Time

	degraded  atomic.Int64 // responses reporting a downgraded sample count
	solves    atomic.Int64
	evaluates atomic.Int64
	appends   atomic.Int64
}

// mux assembles the daemon's routes: the solve and evaluate handlers run
// behind admission control and (when enabled) fault injection; the probes
// and /statusz bypass both so health stays observable under overload.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /info", s.info)
	mux.HandleFunc("GET /statusz", s.statusz)
	mux.Handle("POST /solve", s.admit(s.solveWeight, s.faults.Wrap(http.HandlerFunc(s.solve))))
	mux.Handle("POST /evaluate", s.admit(s.evaluateWeight, s.faults.Wrap(http.HandlerFunc(s.evaluate))))
	// Appends patch every warm snapshot, so they weigh like a solve: under
	// overload the limiter sheds churn the same way it sheds search work.
	mux.Handle("POST /graph/append", s.admit(s.solveWeight, s.faults.Wrap(http.HandlerFunc(s.graphAppend))))
	return mux
}

// admit runs next behind the admission limiter. Shed requests answer 429
// (queue full — back off briefly and retry) or 503 (queue deadline), both
// carrying a Retry-After; disconnected clients just end. A nil limiter
// admits everything (tests).
func (s *server) admit(weight int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter == nil {
			next.ServeHTTP(w, r)
			return
		}
		release, err := s.limiter.Acquire(r.Context(), weight)
		if err != nil {
			switch {
			case errors.Is(err, serve.ErrQueueFull):
				s.writeShed(w, http.StatusTooManyRequests, err)
			case errors.Is(err, serve.ErrQueueTimeout):
				s.writeShed(w, http.StatusServiceUnavailable, err)
			}
			// Context errors: the client is gone, nothing to write.
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// writeShed answers a shed request with the status and a Retry-After hint
// derived from the queue deadline (how long it takes load to drain enough
// for queued work to move).
func (s *server) writeShed(w http.ResponseWriter, status int, err error) {
	retry := 1
	if qt := s.limiter.QueueTimeout(); qt > time.Second {
		retry = int((qt + time.Second - 1) / time.Second)
	}
	w.Header().Set("Retry-After", fmt.Sprint(retry))
	writeError(w, status, err)
}

// callParams is the request-level campaign configuration shared by /solve
// and /evaluate: zero values defer to the campaign's defaults, and every
// other value is forwarded to its option, whose validator rejects it (400)
// when out of range.
type callParams struct {
	Engine       string  `json:"engine"`
	Model        string  `json:"model"`
	Samples      int     `json:"samples"`
	Seed         *uint64 `json:"seed"` // set ⇒ pinned, reproducible call
	Workers      int     `json:"workers"`
	CandidateCap int     `json:"candidate_cap"`
	LimitedK     int     `json:"limited_k"`
	GPILimit     int     `json:"gpi_limit"`
	Epsilon      float64 `json:"epsilon"` // ssr engine: approximation slack
	Delta        float64 `json:"delta"`   // ssr engine: failure probability
	TimeoutMS    int     `json:"timeout_ms"`
}

func (p callParams) options() []s3crm.Option {
	var opts []s3crm.Option
	if p.Engine != "" {
		opts = append(opts, s3crm.WithEngine(p.Engine))
	}
	if p.Model != "" {
		opts = append(opts, s3crm.WithModel(p.Model))
	}
	if p.Samples != 0 {
		opts = append(opts, s3crm.WithSamples(p.Samples))
	}
	if p.Seed != nil {
		opts = append(opts, s3crm.WithSeed(*p.Seed))
	}
	if p.Workers != 0 {
		opts = append(opts, s3crm.WithWorkers(p.Workers))
	}
	if p.CandidateCap != 0 {
		opts = append(opts, s3crm.WithCandidateCap(p.CandidateCap))
	}
	if p.LimitedK != 0 {
		opts = append(opts, s3crm.WithLimitedK(p.LimitedK))
	}
	if p.GPILimit != 0 {
		opts = append(opts, s3crm.WithGPILimit(p.GPILimit))
	}
	if p.Epsilon != 0 {
		opts = append(opts, s3crm.WithEpsilon(p.Epsilon))
	}
	if p.Delta != 0 {
		opts = append(opts, s3crm.WithDelta(p.Delta))
	}
	return opts
}

// ctx derives the request context: the per-request timeout_ms when given,
// else the daemon's default request timeout, else the bare request context.
// A negative timeout_ms is an error.
func (p callParams) ctx(r *http.Request, def time.Duration) (context.Context, context.CancelFunc, error) {
	switch {
	case p.TimeoutMS < 0:
		return nil, nil, fmt.Errorf("timeout_ms must be non-negative, got %d", p.TimeoutMS)
	case p.TimeoutMS > 0:
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(p.TimeoutMS)*time.Millisecond)
		return ctx, cancel, nil
	case def > 0:
		ctx, cancel := context.WithTimeout(r.Context(), def)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

type solveRequest struct {
	callParams
	Algorithm string `json:"algorithm"`
	Stream    bool   `json:"stream"`
}

type evaluateRequest struct {
	callParams
	Deployments []deploymentJSON `json:"deployments"`
}

type deploymentJSON struct {
	Seeds   []int       `json:"seeds"`
	Coupons map[int]int `json:"coupons"` // JSON keys are decimal user ids
}

// decodeBody decodes the request body into v with the daemon's input
// hygiene: the body is capped at maxBody bytes (413 past it) and unknown
// JSON fields are rejected (400), so typos like "sample" fail loudly
// instead of silently running with defaults. It writes the error response
// itself and reports whether decoding succeeded.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) info(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"users":        s.campaign.Users(), // current counts: /graph/append grows them
		"edges":        s.campaign.Edges(),
		"budget":       s.problem.Budget(),
		"defaults":     s.defaults,
		"engines":      s3crm.Engines(),
		"engine_usage": s3crm.EngineUsage(),
		"models":       s3crm.Models(),
		"baselines":    s3crm.Baselines(),
	})
}

// statusz reports serving health: the admission limiter's gauges and shed
// counters, degradation activity, request tallies and fault-injection
// counts — the numbers cmd/loadgen and the load-test protocol in
// EXPERIMENTS.md read back.
func (s *server) statusz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"uptime_s":  time.Since(s.started).Seconds(),
		"degraded":  s.degraded.Load(),
		"solves":    s.solves.Load(),
		"evaluates": s.evaluates.Load(),
		"appends":   s.appends.Load(),
		"users":     s.campaign.Users(),
		"edges":     s.campaign.Edges(),
		"ladder":    s.ladder.String(),
	}
	if s.limiter != nil {
		c := s.limiter.Counters()
		body["admission"] = c
		body["shed"] = c.Shed()
		body["pressure"] = s.limiter.Pressure()
	}
	if s.faults != nil {
		body["faults"] = s.faults.Counters()
	}
	writeJSON(w, http.StatusOK, body)
}

// noteDegraded counts responses that report a downgraded sample count.
func (s *server) noteDegraded(results ...*s3crm.Result) {
	for _, r := range results {
		if r != nil && r.Degraded {
			s.degraded.Add(1)
			return
		}
	}
}

func (s *server) solve(w http.ResponseWriter, r *http.Request) {
	s.solves.Add(1)
	var req solveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "S3CA"
	}
	ctx, cancel, err := req.ctx(r, s.defaultTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	opts := req.options()

	if req.Stream {
		s.solveStream(ctx, w, req, opts)
		return
	}
	result, err := s.run(ctx, req.Algorithm, opts)
	if err != nil {
		writeError(w, statusFor(ctx, err), err)
		return
	}
	s.noteDegraded(result)
	writeJSON(w, http.StatusOK, map[string]any{"result": result})
}

// solveStream answers with NDJSON: one {"event": …} line per solver
// progress event, then a final {"result": …} or {"error": …} line. Events
// are produced synchronously by the solve running in this handler
// goroutine, so writes never interleave.
func (s *server) solveStream(ctx context.Context, w http.ResponseWriter, req solveRequest, opts []s3crm.Option) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	opts = append(opts, s3crm.WithProgress(func(e s3crm.Event) {
		_ = enc.Encode(map[string]any{"event": e})
		if flusher != nil {
			flusher.Flush()
		}
	}))
	result, err := s.run(ctx, req.Algorithm, opts)
	if err != nil {
		_ = enc.Encode(map[string]any{"error": err.Error()})
	} else {
		s.noteDegraded(result)
		_ = enc.Encode(map[string]any{"result": result})
	}
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *server) run(ctx context.Context, algorithm string, opts []s3crm.Option) (*s3crm.Result, error) {
	if algorithm == "S3CA" {
		return s.campaign.Solve(ctx, opts...)
	}
	return s.campaign.RunBaseline(ctx, algorithm, opts...)
}

func (s *server) evaluate(w http.ResponseWriter, r *http.Request) {
	s.evaluates.Add(1)
	var req evaluateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Deployments) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need at least one deployment"))
		return
	}
	ctx, cancel, err := req.ctx(r, s.defaultTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	deps := make([]s3crm.Deployment, len(req.Deployments))
	for i, d := range req.Deployments {
		deps[i] = s3crm.Deployment{Seeds: d.Seeds, Coupons: d.Coupons}
	}
	results, err := s.campaign.EvaluateBatch(ctx, deps, req.options()...)
	if err != nil {
		writeError(w, statusFor(ctx, err), err)
		return
	}
	s.noteDegraded(results...)
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

type appendRequest struct {
	Edges     []edgeJSON `json:"edges"`
	TimeoutMS int        `json:"timeout_ms"`
}

type edgeJSON struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	P    float64 `json:"p"`
}

// graphAppend applies an edge batch to the served campaign. The campaign
// patches its warm engine state in place (delta-overlay CSR, extended
// live-edge substrates, re-simulated affected worlds); concurrent solves and
// evaluates keep the consistent graph view their call resolved.
func (s *server) graphAppend(w http.ResponseWriter, r *http.Request) {
	s.appends.Add(1)
	var req appendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need at least one edge"))
		return
	}
	ctx, cancel, err := callParams{TimeoutMS: req.TimeoutMS}.ctx(r, s.defaultTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	edges := make([]s3crm.EdgeAdd, len(req.Edges))
	for i, e := range req.Edges {
		edges[i] = s3crm.EdgeAdd{From: e.From, To: e.To, P: e.P}
	}
	st, err := s.campaign.ApplyEdges(ctx, edges)
	if err != nil {
		writeError(w, statusFor(ctx, err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stats": st,
		"users": s.campaign.Users(),
		"edges": s.campaign.Edges(),
	})
}

// statusFor maps a call error to an HTTP status: cancelled or timed-out
// requests report 503/504, everything else is a bad request (validation).
func statusFor(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded:
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
