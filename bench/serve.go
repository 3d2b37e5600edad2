package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"s3crm"
)

const (
	serveScale   = 400  // Epinions profile at scale 400: 190 users
	serveSamples = 1000 // the daemon's default sample count
	solveEvery   = 4    // one request in four is a /solve; the rest /evaluate
	clientConns  = 2    // connections the load generator holds (nproc)

	// evalBatch is the number of deployments per /evaluate request. At 16 a
	// request carries about a millisecond of work (evaluating the
	// deployments and encoding their results), and its latency follows that
	// work more than the wake-ups of two idle processes: in runs alternated
	// on one machine, the open-loop median moved by about ±15% between runs
	// at 4 deployments and by about ±5% at 16.
	evalBatch = 16

	// openRate is the open loop's fixed arrival rate, in requests per
	// second, frozen so that the open loop offers the same load to every
	// version of the daemon: about a third of the closed-loop capacity
	// (161 requests/s) measured on a 2-core machine when the benchmark was
	// defined, so that the daemon is busy but no queue builds up.
	openRate = 50.0

	// closedShare is the share of the window the closed loop takes, enough
	// for serve.capacity_per_s; the open loop, whose latencies are the op
	// metrics, takes the rest (1000 requests in a 25 s window).
	closedShare = 0.2
)

// daemonArgs start s3crmd on the serve-mix instance: the daemon's default
// engine and sample count, no degradation and no faults.
func daemonArgs(addr string) []string {
	return []string{"-addr", addr, "-dataset", "Epinions", "-scale", strconv.Itoa(serveScale),
		"-seed", strconv.Itoa(instanceSeed), "-engine", "mc", "-samples", strconv.Itoa(serveSamples), "-degrade", "off"}
}

// serveCampaign is the in-process twin of the daemon's campaign: the same
// instance and the same defaults.
func serveCampaign() (*s3crm.Campaign, error) {
	p, err := s3crm.GenerateDataset("Epinions", serveScale, instanceSeed)
	if err != nil {
		return nil, err
	}
	return p.NewCampaign(s3crm.WithEngine("mc"), s3crm.WithSamples(serveSamples), s3crm.WithSeed(instanceSeed))
}

// request is one generated request: a /solve, or an /evaluate of a batch of
// deployments.
type request struct {
	solve bool
	deps  []s3crm.Deployment
}

// requestAt returns request i of the seed's sequence. Every fourth request
// is a /solve, so that no seed offers a burstier or heavier mix than
// another. Evaluated deployments are what-if variants of base, a solved
// plan: a random non-empty subset of its seeds and a random share of each
// coupon allocation, so every variant is valid and within budget.
func requestAt(seed uint64, i int, base *s3crm.Result) request {
	if i%solveEvery == 0 {
		return request{solve: true}
	}
	rnd := rand.New(rand.NewPCG(seed, uint64(i)))
	holders := make([]int, 0, len(base.Coupons))
	for v := range base.Coupons {
		holders = append(holders, v)
	}
	sort.Ints(holders)
	deps := make([]s3crm.Deployment, evalBatch)
	for d := range deps {
		var seeds []int
		for _, s := range base.Seeds {
			if rnd.Float64() < 0.7 {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			seeds = []int{base.Seeds[rnd.IntN(len(base.Seeds))]}
		}
		coupons := map[int]int{}
		for _, v := range holders {
			if k := rnd.IntN(base.Coupons[v] + 1); k > 0 {
				coupons[v] = k
			}
		}
		deps[d] = s3crm.Deployment{Seeds: seeds, Coupons: coupons}
	}
	return request{deps: deps}
}

func (q request) path() string {
	if q.solve {
		return "/solve"
	}
	return "/evaluate"
}

func (q request) body() ([]byte, error) {
	if q.solve {
		return []byte("{}"), nil // unpinned: the daemon's campaign seed
	}
	type dep struct {
		Seeds   []int       `json:"seeds"`
		Coupons map[int]int `json:"coupons"`
	}
	ds := make([]dep, len(q.deps))
	for i, d := range q.deps {
		ds[i] = dep{d.Seeds, d.Coupons}
	}
	return json.Marshal(map[string]any{"deployments": ds})
}

// daemon is a running s3crmd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit, valid after done
}

// startDaemon starts s3crmd on a free loopback port and waits for its first
// /healthz 200.
func startDaemon(ctx context.Context, path string, client *http.Client) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{cmd: exec.Command(path, daemonArgs(addr)...), base: "http://" + addr, done: make(chan struct{})}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("s3crmd exited before serving: %v", d.err)
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, errors.New("s3crmd did not become healthy")
		}
	}
}

// stop shuts the daemon down gracefully, killing it if it has not exited
// after ten seconds, and waits for the process to end.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("s3crmd did not drain within 10s and was killed")
	}
}

// peakRSSMiB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// served is one answered request.
type served struct {
	i         int
	solve     bool
	open      bool
	lat, late time.Duration
	results   []*s3crm.Result
	err       error
}

// serveRun drives one daemon.
type serveRun struct {
	*run
	client *http.Client
	d      *daemon
	base   *s3crm.Result
	budget float64

	mu  sync.Mutex
	out []served
}

// serveMix runs s3crmd and offers it a request mix from one client holding
// two connections: a closed loop for the first fifth of the window
// (throughput), then an open loop at openRate for the rest (latency from
// each request's due time).
func (r *run) serveMix() error {
	// The evaluated deployments vary a plan solved in process, outside any
	// timer, on the daemon's own instance.
	twin, err := serveCampaign()
	if err != nil {
		return err
	}
	base, err := twin.Solve(r.ctx)
	if err != nil {
		return err
	}
	s := &serveRun{run: r, base: base, budget: twin.Problem().Budget(), client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
	}}
	defer s.client.CloseIdleConnections()
	err = r.setup(func(step stepFn) error {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return err
			}
		}
		return step("serve.start", func() (err error) {
			s.d, err = startDaemon(r.ctx, r.daemon, s.client)
			return err
		})
	})
	if err != nil {
		if s.d != nil {
			s.d.stop()
		}
		return err
	}
	r.startWindow()
	closedDur := time.Duration(closedShare * float64(r.seconds))
	t := time.Now()
	closedN := s.closedLoop(closedDur)
	r.rp.set("serve.capacity_per_s", float64(closedN)/time.Since(t).Seconds(), closedN)
	openLoop(r.ctx, int(openRate*(r.seconds-closedDur).Seconds()), openRate, clientConns, func(k int, due, from time.Time) {
		s.send(openBase+k, due, from, true)
	})

	var status struct {
		Shed     float64 `json:"shed"`
		Degraded float64 `json:"degraded"`
	}
	statusErr := s.get("/statusz", &status)
	rss, rssErr := s.d.peakRSSMiB()
	r.rssMiB = rss
	stopErr := s.d.stop()
	if err := errors.Join(statusErr, rssErr, stopErr); err != nil {
		return err
	}
	r.rp.set("serve.shed", status.Shed, 1)
	r.rp.set("serve.degraded", status.Degraded, 1)
	s.account()
	if r.tr != nil {
		return s.replay(closedN)
	}
	return nil
}

// closedLoop sends requests 0, 1, … on clientConns connections, each sending
// its next request when the previous answer arrives, until dur has passed.
// It returns how many requests completed.
func (s *serveRun) closedLoop(dur time.Duration) int {
	end := time.Now().Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && s.ctx.Err() == nil {
				now := time.Now()
				s.send(int(next.Add(1)-1), now, now, false)
			}
		}()
	}
	wg.Wait()
	return int(next.Load())
}

// openBase numbers the open loop's requests apart from the closed loop's.
const openBase = 1 << 24

// openLoop issues n requests at a fixed rate per second from conns callers:
// request k is due at k/rate after the start, whether or not earlier ones
// were answered. do receives its due time and the time to measure its
// latency from: the due time when every caller was still busy at it — so a
// stall also counts against the requests queued behind it — and the moment
// the caller woke otherwise, so that the timer's wake-up lag (about a
// millisecond) is not charged to the server. At most conns requests are in
// flight.
func openLoop(ctx context.Context, n int, rate float64, conns int, do func(k int, due, from time.Time)) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				do(k, due, from)
			}
		}()
	}
	wg.Wait()
}

// send issues request i, due at due, timing it from from, and records the
// answer.
func (s *serveRun) send(i int, due, from time.Time, open bool) {
	q := requestAt(s.seed, i, s.base)
	sv := served{i: i, solve: q.solve, open: open, late: time.Since(due)}
	id := s.tr.open(s.root, s.tr.newOp(), "http"+strings.ReplaceAll(q.path(), "/", "."))
	sv.results, sv.err = s.post(q)
	sv.lat = time.Since(from)
	counters := map[string]float64{"late_ns": float64(sv.late)}
	if open {
		counters["open"] = 1
	}
	s.tr.close(id, counters)
	s.mu.Lock()
	s.out = append(s.out, sv)
	s.mu.Unlock()
}

// post sends one request and checks the answer: status 200, and every
// result at the full sample count, not degraded and within budget.
func (s *serveRun) post(q request) ([]*s3crm.Result, error) {
	body, err := q.body()
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.d.base+q.path(), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", q.path(), resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ans struct {
		Result  *s3crm.Result   `json:"result"`
		Results []*s3crm.Result `json:"results"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		return nil, fmt.Errorf("%s: %w", q.path(), err)
	}
	results := ans.Results
	if q.solve {
		results = []*s3crm.Result{ans.Result}
	}
	if len(results) != max(len(q.deps), 1) || results[0] == nil {
		return nil, fmt.Errorf("%s answered %d results", q.path(), len(results))
	}
	for _, res := range results {
		if err := checkResult(res, s.budget, serveSamples); err != nil {
			return nil, fmt.Errorf("%s: %w", q.path(), err)
		}
	}
	return results, nil
}

func (s *serveRun) get(path string, v any) error {
	resp, err := s.client.Get(s.d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// account turns the answered requests into the run's op samples: the open
// loop's latencies, failures, and the solves' redemption rates.
func (s *serveRun) account() {
	var late []float64
	for _, sv := range s.out {
		s.rp.attempted++
		if sv.err != nil {
			s.rp.fail("request %d: %v", sv.i, sv.err)
			continue
		}
		if sv.solve {
			s.rates = append(s.rates, sv.results[0].RedemptionRate)
		}
		if sv.open {
			s.lat = append(s.lat, ms(sv.lat))
			late = append(late, ms(sv.late))
		}
	}
	_, v := tail(late)
	s.rp.set("serve.late_tail_ms", v, len(late))
}

// replay, in a traced run, sends the closed loop's first n requests to an
// in-process twin of the daemon's campaign from two callers, so that the
// serving layer's overhead is the HTTP median minus the in-process one, and
// checks that every /evaluate answer matches the in-process evaluation.
func (s *serveRun) replay(n int) error {
	twin, err := serveCampaign()
	if err != nil {
		return err
	}
	httpRates := map[int][]*s3crm.Result{}
	for _, sv := range s.out {
		if !sv.open && !sv.solve && sv.err == nil {
			httpRates[sv.i] = sv.results
		}
	}
	var next atomic.Int64
	var last atomic.Pointer[s3crm.Result]
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || s.ctx.Err() != nil {
					return
				}
				q := requestAt(s.seed, i, s.base)
				if q.solve {
					s.op("replay.solve", false, func(o *opCtx) error {
						res, err := twin.Solve(s.ctx, o.progress()...)
						if err == nil {
							last.Store(res)
						}
						return err
					})
					continue
				}
				s.op("replay.evaluate", false, func(o *opCtx) error {
					rs, err := twin.EvaluateBatch(s.ctx, q.deps)
					if err != nil {
						return err
					}
					if want, ok := httpRates[i]; ok {
						for k := range rs {
							if !sameRate(rs[k].RedemptionRate, want[k].RedemptionRate) {
								return fmt.Errorf("request %d: HTTP redemption %v, in process %v", i, want[k].RedemptionRate, rs[k].RedemptionRate)
							}
						}
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	s.traceEvaluate(twin, last.Load(), 20)
	return nil
}
