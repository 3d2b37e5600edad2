// Campaign serving-API tests: concurrency safety, determinism of pinned
// calls against the same calls on fresh campaigns, prompt context
// cancellation from every engine, eager option validation and the progress
// event stream.
package s3crm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"s3crm/internal/core"
)

func campaignProblem(t testing.TB) *Problem {
	t.Helper()
	p, err := GenerateDataset("Facebook", 100, 3) // 40 users
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oneShot builds a throwaway campaign for a single call — the reference a
// pinned call on a busy campaign must reproduce bit for bit.
func oneShot(t testing.TB, p *Problem, opts ...Option) *Campaign {
	t.Helper()
	c, err := p.NewCampaign(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resultsEqual compares every reported field bit for bit.
func resultsEqual(a, b *Result) bool {
	return a.Algorithm == b.Algorithm &&
		a.RedemptionRate == b.RedemptionRate &&
		a.Benefit == b.Benefit &&
		a.SeedCost == b.SeedCost &&
		a.CouponCost == b.CouponCost &&
		a.TotalCost == b.TotalCost &&
		a.FarthestHop == b.FarthestHop &&
		reflect.DeepEqual(a.Seeds, b.Seeds) &&
		reflect.DeepEqual(a.Coupons, b.Coupons)
}

// TestCampaignConcurrentMatchesOneShot is the acceptance scenario: a single
// Campaign serves many concurrent Solve and EvaluateBatch calls — across
// engines, each pinned to its own seed — and every result is bit-identical
// to the same pinned call made sequentially on a fresh campaign.
func TestCampaignConcurrentMatchesOneShot(t *testing.T) {
	p := campaignProblem(t)
	c, err := p.NewCampaign(WithSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	type job struct {
		kind   string // "solve", "baseline" or "batch"
		engine string
		name   string // baseline name
		seed   uint64
	}
	jobs := []job{
		{kind: "solve", engine: "mc", seed: 7},
		{kind: "solve", engine: "worldcache", seed: 7},
		{kind: "solve", engine: "mc", seed: 11},
		{kind: "solve", engine: "worldcache", seed: 11},
		{kind: "baseline", engine: "mc", name: "IM-U", seed: 7},
		{kind: "baseline", engine: "ssr", name: "PM-L", seed: 7},
		{kind: "batch", engine: "mc", seed: 7},
		{kind: "batch", engine: "worldcache", seed: 13},
		{kind: "solve", engine: "worldcache", seed: 17},
		{kind: "batch", engine: "mc", seed: 17},
	}
	batchDeps := []Deployment{
		{Seeds: []int{0}, Coupons: map[int]int{0: 2}},
		{Seeds: []int{1, 2}, Coupons: map[int]int{1: 1, 2: 1}},
		{Seeds: []int{3}},
	}

	// Sequential references, each pinned call on a throwaway Campaign.
	want := make([][]*Result, len(jobs))
	for i, j := range jobs {
		fresh := oneShot(t, p, WithSamples(150))
		pin := []Option{WithEngine(j.engine), WithSeed(j.seed), WithCandidateCap(20)}
		switch j.kind {
		case "solve":
			r, err := fresh.Solve(ctx, pin...)
			if err != nil {
				t.Fatalf("one-shot %+v: %v", j, err)
			}
			want[i] = []*Result{r}
		case "baseline":
			r, err := fresh.RunBaseline(ctx, j.name, pin...)
			if err != nil {
				t.Fatalf("one-shot %+v: %v", j, err)
			}
			want[i] = []*Result{r}
		case "batch":
			for _, dep := range batchDeps {
				r, err := fresh.Evaluate(ctx, dep, pin...)
				if err != nil {
					t.Fatalf("one-shot %+v: %v", j, err)
				}
				want[i] = append(want[i], r)
			}
		}
	}

	// The same calls, concurrently, against the single shared Campaign.
	got := make([][]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			opts := []Option{WithEngine(j.engine), WithSeed(j.seed), WithCandidateCap(20)}
			switch j.kind {
			case "solve":
				r, err := c.Solve(ctx, opts...)
				got[i], errs[i] = []*Result{r}, err
			case "baseline":
				r, err := c.RunBaseline(ctx, j.name, opts...)
				got[i], errs[i] = []*Result{r}, err
			case "batch":
				rs, err := c.EvaluateBatch(ctx, batchDeps, opts...)
				got[i], errs[i] = rs, err
			}
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("concurrent %+v: %v", j, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("concurrent %+v: %d results, want %d", j, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			g, w := got[i][k], want[i][k]
			if !resultsEqual(g, w) {
				t.Errorf("job %d (%+v) result %d diverged:\nconcurrent %+v\none-shot   %+v", i, j, k, g, w)
			}
		}
	}
}

// TestCampaignWarmReuseDeterminism pins that repeated pinned calls on one
// campaign — where the second call reuses materialized live-edge rows and a
// pooled world-cache snapshot — return bit-identical results.
func TestCampaignWarmReuseDeterminism(t *testing.T) {
	p := campaignProblem(t)
	ctx := context.Background()
	for _, engine := range Engines() {
		c, err := p.NewCampaign(WithEngine(engine), WithSamples(150), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		first, err := c.Solve(ctx, WithSeed(5))
		if err != nil {
			t.Fatalf("%s cold: %v", engine, err)
		}
		second, err := c.Solve(ctx, WithSeed(5))
		if err != nil {
			t.Fatalf("%s warm: %v", engine, err)
		}
		if !resultsEqual(first, second) {
			t.Errorf("%s: warm solve diverged from cold:\ncold %+v\nwarm %+v", engine, first, second)
		}
	}
}

// TestCampaignEvaluateBatchMatchesEvaluate pins batch-vs-single and
// parallel-vs-sequential equivalence: a parallel batch fans deployments out
// across workers, and a single Evaluate under WithWorkers splits its world
// sweep, both bit-identical to sequential as WithWorkers promises.
func TestCampaignEvaluateBatchMatchesEvaluate(t *testing.T) {
	p := campaignProblem(t)
	c, err := p.NewCampaign(WithSamples(300), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deps := []Deployment{
		{Seeds: []int{0}, Coupons: map[int]int{0: 1}},
		{Seeds: []int{1}, Coupons: map[int]int{1: 2}},
		{Seeds: []int{0, 1}, Coupons: map[int]int{0: 1, 1: 1}},
		{Seeds: []int{2}},
		{Seeds: []int{3}, Coupons: map[int]int{3: 3}},
	}
	sequential, err := c.EvaluateBatch(ctx, deps)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := c.EvaluateBatch(ctx, deps, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range deps {
		single, err := c.Evaluate(ctx, deps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(sequential[i], single) {
			t.Errorf("dep %d: batch %+v != single %+v", i, sequential[i], single)
		}
		if !resultsEqual(sequential[i], parallel[i]) {
			t.Errorf("dep %d: sequential batch %+v != parallel batch %+v", i, sequential[i], parallel[i])
		}
		for _, workers := range []int{2, 3, 7} {
			split, err := c.Evaluate(ctx, deps[i], WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(sequential[i], split) {
				t.Errorf("dep %d workers=%d: sequential %+v != parallel sweep %+v", i, workers, sequential[i], split)
			}
		}
	}
}

// TestCampaignCancellation checks that a cancelled context aborts promptly
// with ctx.Err() from every engine, for Solve, RunBaseline and
// EvaluateBatch, both pre-cancelled and cancelled mid-run.
func TestCampaignCancellation(t *testing.T) {
	p := campaignProblem(t)
	for _, engine := range Engines() {
		c, err := p.NewCampaign(WithEngine(engine), WithSamples(150), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}

		// Pre-cancelled context: nothing should run.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := c.Solve(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled Solve err = %v, want context.Canceled", engine, err)
		}
		if _, err := c.RunBaseline(cancelled, "IM-U"); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled RunBaseline err = %v, want context.Canceled", engine, err)
		}
		if _, err := c.EvaluateBatch(cancelled, []Deployment{{Seeds: []int{0}}}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled EvaluateBatch err = %v, want context.Canceled", engine, err)
		}

		// Mid-run: the progress stream cancels after the first event of the
		// engine's selection phase ("id" for the forward engines, "sketch"
		// for ssr — which never runs the ID loop), so the solve must abort
		// with a partial-stats error.
		trigger := "id"
		if engine == "ssr" {
			trigger = "sketch"
		}
		ctx, stop := context.WithCancel(context.Background())
		var events atomic.Int64
		_, err = c.Solve(ctx, WithProgress(func(e Event) {
			if e.Phase == trigger && events.Add(1) == 1 {
				stop()
			}
		}))
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-run Solve err = %v, want context.Canceled", engine, err)
		}
		var partial *core.PartialError
		if !errors.As(err, &partial) {
			t.Fatalf("%s: mid-run Solve err %v carries no *core.PartialError", engine, err)
		}
		if engine == "ssr" {
			if partial.Stats.SketchRounds == 0 {
				t.Errorf("%s: partial error reports no sketch rounds", engine)
			}
		} else if partial.Stats.IDIterations == 0 {
			t.Errorf("%s: partial error reports no ID iterations", engine)
		}
		// The abort must come within a couple of iterations of the cancel.
		if got := events.Load(); got > 3 {
			t.Errorf("%s: %d ID events after cancellation, want prompt abort", engine, got)
		}
	}
}

// TestCampaignValidation checks the eager "want one of …" validation at
// construction and at call level.
func TestCampaignValidation(t *testing.T) {
	p := campaignProblem(t)
	if _, err := p.NewCampaign(WithEngine("warp")); err == nil ||
		!strings.Contains(err.Error(), "want one of") || !strings.Contains(err.Error(), "worldcache") {
		t.Errorf("bad engine error = %v, want a 'want one of' listing", err)
	}
	if _, err := p.NewCampaign(WithEngine("sketch")); err == nil ||
		!strings.Contains(err.Error(), "want one of [mc worldcache ssr auto]") {
		t.Errorf("retired sketch engine error = %v, want a 'want one of' listing", err)
	}
	if _, err := p.NewCampaign(WithModel("telepathy")); err == nil ||
		!strings.Contains(err.Error(), "want one of") || !strings.Contains(err.Error(), "lt") {
		t.Errorf("bad model error = %v, want a 'want one of' listing", err)
	}
	if _, err := p.NewCampaign(WithSamples(-3)); err == nil {
		t.Error("negative samples accepted")
	}
	if _, err := p.NewCampaign(WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}

	c, err := p.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Solve(ctx, WithEngine("warp")); err == nil || !strings.Contains(err.Error(), "want one of") {
		t.Errorf("call-level bad engine error = %v, want a 'want one of' listing", err)
	}
	if _, err := c.RunBaseline(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "want one of") {
		t.Errorf("unknown baseline error = %v, want a 'want one of' listing", err)
	}
	if _, err := c.Evaluate(ctx, Deployment{Seeds: []int{99}}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := c.Evaluate(ctx, Deployment{Coupons: map[int]int{0: -1}}); err == nil {
		t.Error("negative coupon count accepted")
	}
}

// TestCampaignEvents checks the progress stream: events arrive, phases are
// from the documented set, ID iterations are monotone, and the algorithm
// and call sequence stamps are set.
func TestCampaignEvents(t *testing.T) {
	p := campaignProblem(t)
	var mu sync.Mutex
	var events []Event
	c, err := p.NewCampaign(WithSamples(150), WithSeed(2), WithProgress(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBaseline(ctx, "IM-U", WithCandidateCap(10)); err != nil {
		t.Fatal(err)
	}

	known := map[string]bool{"pivot": true, "id": true, "gpi": true, "scm": true,
		"select": true, "rank": true, "sweep": true}
	lastID := 0
	sawID, sawRank := false, false
	for _, e := range events {
		if !known[e.Phase] {
			t.Fatalf("unknown phase %q in %+v", e.Phase, e)
		}
		switch e.Phase {
		case "id":
			sawID = true
			if e.Algorithm != "S3CA" || e.Call != 1 {
				t.Fatalf("id event mislabelled: %+v", e)
			}
			if e.Iteration != lastID+1 {
				t.Fatalf("id iterations not monotone: %d after %d", e.Iteration, lastID)
			}
			lastID = e.Iteration
			if e.Spent <= 0 || math.IsNaN(e.Rate) {
				t.Fatalf("id event missing accounting: %+v", e)
			}
		case "rank", "sweep":
			sawRank = true
			if e.Algorithm != "IM-U" || e.Call != 2 {
				t.Fatalf("baseline event mislabelled: %+v", e)
			}
		}
	}
	if !sawID || !sawRank {
		t.Fatalf("event stream incomplete: sawID=%v sawRank=%v (%d events)", sawID, sawRank, len(events))
	}
}

// TestCampaignUnpinnedReproducible: without per-call seeds, a campaign's
// call history is a deterministic function of the campaign seed and the
// call order — two fresh campaigns replaying the same calls agree exactly,
// while distinct calls draw distinct selection streams.
func TestCampaignUnpinnedReproducible(t *testing.T) {
	p := campaignProblem(t)
	run := func() []*Result {
		c, err := p.NewCampaign(WithSamples(150), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		var out []*Result
		for i := 0; i < 2; i++ {
			r, err := c.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !resultsEqual(a[i], b[i]) {
			t.Errorf("replayed call %d diverged:\n%+v\n%+v", i+1, a[i], b[i])
		}
	}
}

// TestCampaignEnginePoolBounded pins the serving-memory guard: a client
// sweeping per-call seeds (as an s3crmd client can) must not grow the
// engine cache past its cap, and the construction-time default pool must
// survive eviction.
func TestCampaignEnginePoolBounded(t *testing.T) {
	p := campaignProblem(t)
	c, err := p.NewCampaign(WithSamples(100), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dep := Deployment{Seeds: []int{0}}
	for seed := uint64(0); seed < 3*maxEnginePools; seed++ {
		if _, err := c.Evaluate(ctx, dep, WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.engines)
	_, defaultAlive := c.engines[c.defaultKey]
	c.mu.Unlock()
	if n > maxEnginePools {
		t.Fatalf("engine cache grew to %d entries, cap is %d", n, maxEnginePools)
	}
	if !defaultAlive {
		t.Fatal("default engine pool was evicted")
	}
	// The default pool still serves unpinned calls after the sweep.
	if _, err := c.Evaluate(ctx, dep); err != nil {
		t.Fatal(err)
	}
}

// ExampleCampaign_Solve demonstrates the serving API end to end.
func ExampleCampaign_Solve() {
	problem, err := NewProblem(3).
		AddEdge(0, 1, 0.9).AddEdge(0, 2, 0.9).
		Budget(5).Build()
	if err != nil {
		panic(err)
	}
	campaign, err := problem.NewCampaign(WithSamples(2000), WithSeed(1))
	if err != nil {
		panic(err)
	}
	r, err := campaign.Solve(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("seeds:", r.Seeds)
	// Output:
	// seeds: [0]
}

// TestCampaignDegradationClamp: a degradation hook may lower a call's
// Monte-Carlo worlds but never raise them, and never below one world.
func TestCampaignDegradationClamp(t *testing.T) {
	p := campaignProblem(t)
	ctx := context.Background()
	dep := Deployment{Seeds: []int{0}, Coupons: map[int]int{0: 1}}
	for _, tc := range []struct {
		hook     int
		want     int
		degraded bool
	}{
		{hook: 40, want: 40, degraded: true},
		{hook: 0, want: 1, degraded: true},
		{hook: 500, want: 100, degraded: false},
	} {
		c := oneShot(t, p, WithSamples(100), WithSeed(3),
			WithDegradation(func(int) int { return tc.hook }))
		r, err := c.Evaluate(ctx, dep)
		if err != nil {
			t.Fatal(err)
		}
		if r.EffectiveSamples != tc.want || r.Degraded != tc.degraded {
			t.Errorf("hook %d: effective %d degraded %v, want %d %v",
				tc.hook, r.EffectiveSamples, r.Degraded, tc.want, tc.degraded)
		}
	}
}

// TestSolvePoolsSnapshotOnAnswer checks what a worldcache Solve leaves in
// its pool: the snapshot is rebased on the deployment Solve returned, not on
// the solver's last trial (rebasing onto the answer costs no evaluation), and
// the result equals a plain Evaluate measurement of the answer.
func TestSolvePoolsSnapshotOnAnswer(t *testing.T) {
	ctx := context.Background()
	p, err := GenerateDataset("Epinions", 400, 77)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(300), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.engines[c.defaultKey]
	if len(ep.idle) != 1 {
		t.Fatalf("%d idle snapshots after one Solve, want 1", len(ep.idle))
	}
	wc := ep.idle[0]
	d, err := buildDeploymentFor(c.inst, Deployment{Seeds: res.Seeds, Coupons: res.Coupons})
	if err != nil {
		t.Fatal(err)
	}
	before := wc.Evals()
	wc.Rebase(d)
	if n := wc.Evals() - before; n != 0 {
		t.Fatalf("rebasing the pooled snapshot onto the returned deployment cost %d evaluations: it is not based on the answer", n)
	}
	want := *resultFrom("S3CA", c.inst, d, ep.proto.View(ctx, 0), 300, false)
	want.ExploredRatio = res.ExploredRatio // solver statistics, not a measurement
	if !reflect.DeepEqual(*res, want) {
		t.Fatalf("Solve result %+v != Evaluate of its deployment %+v", *res, want)
	}
}
