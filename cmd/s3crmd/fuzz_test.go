package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"s3crm"
)

// fuzzProblem is the 8-user network every daemon fuzz target serves: a
// five-user cycle plus three isolated users for appends to connect.
func fuzzProblem(f *testing.F) *s3crm.Problem {
	f.Helper()
	problem, err := s3crm.NewProblem(8).
		AddEdge(0, 1, 0.5).AddEdge(1, 2, 0.4).AddEdge(2, 3, 0.3).
		AddEdge(3, 4, 0.2).AddEdge(4, 0, 0.1).
		Budget(8).Build()
	if err != nil {
		f.Fatal(err)
	}
	return problem
}

// fuzzServer serves problem through a fresh 16-sample mc campaign.
func fuzzServer(t *testing.T, problem *s3crm.Problem) *server {
	t.Helper()
	campaign, err := problem.NewCampaign(s3crm.WithSamples(16), s3crm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return &server{problem: problem, campaign: campaign,
		defaults: defaults{Engine: "mc", Samples: 16}}
}

// fuzzCall sends body to handler under a short request deadline, so an
// expensive but valid request ends as a 504 instead of stalling the
// fuzzer, and fails on any other 5xx.
func fuzzCall(t *testing.T, handler http.HandlerFunc, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	handler(w, req)
	if w.Code >= 500 && w.Code != http.StatusGatewayTimeout && w.Code != http.StatusServiceUnavailable {
		t.Fatalf("%s answered %d: %s", path, w.Code, w.Body.String())
	}
	return w
}

// daemonCorpus seeds the /solve and /evaluate fuzzers with the request
// shapes most likely to break a handler: a sample count too large to
// allocate, negative counts and timeouts, unknown fields and non-JSON.
func daemonCorpus(f *testing.F, valid ...string) {
	for _, body := range valid {
		f.Add(body)
	}
	for _, body := range []string{
		`{"samples":2000000000}`,
		`{"samples":-5}`,
		`{"workers":-1}`,
		`{"timeout_ms":-1}`,
		`{"bogus":1}`,
		`not json`,
		`{}`,
	} {
		f.Add(body)
	}
}

// FuzzSolve drives POST /solve with arbitrary request bodies: the handler
// must never panic or answer 5xx, short of the 503/504 a request deadline
// produces.
func FuzzSolve(f *testing.F) {
	daemonCorpus(f,
		`{"algorithm":"S3CA","seed":7}`,
		`{"algorithm":"IM-L","limited_k":2,"candidate_cap":3}`,
		`{"engine":"ssr","epsilon":0.3,"delta":0.1}`,
		`{"engine":"worldcache","model":"lt","samples":64,"stream":true}`,
		`{"algorithm":"PM-U","samples":2000000000}`,
	)
	problem := fuzzProblem(f)
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<14 {
			t.Skip("oversized body")
		}
		fuzzCall(t, fuzzServer(t, problem).solve, "/solve", body)
	})
}

// FuzzEvaluate drives POST /evaluate with arbitrary request bodies under
// the same oracle as FuzzSolve; an accepted request must return one result
// per deployment.
func FuzzEvaluate(f *testing.F) {
	daemonCorpus(f,
		`{"deployments":[{"seeds":[0],"coupons":{"0":1,"1":1}}]}`,
		`{"deployments":[{"seeds":[0]},{"seeds":[2,5],"coupons":{"2":1}}],"engine":"worldcache","samples":64}`,
		`{"deployments":[{"seeds":[9]}]}`,
		`{"deployments":[{"seeds":[0],"coupons":{"0":-1}}]}`,
		`{"deployments":[{"seeds":[0]}],"samples":2000000000}`,
	)
	problem := fuzzProblem(f)
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<14 {
			t.Skip("oversized body")
		}
		s := fuzzServer(t, problem)
		w := fuzzCall(t, s.evaluate, "/evaluate", body)
		if w.Code != http.StatusOK {
			return
		}
		var req struct {
			Deployments []json.RawMessage `json:"deployments"`
		}
		var resp struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("evaluate response: %v: %s", err, w.Body.String())
		}
		if len(resp.Results) != len(req.Deployments) {
			t.Fatalf("%d results for %d deployments", len(resp.Results), len(req.Deployments))
		}
	})
}

// FuzzApplyEdges drives POST /graph/append with arbitrary request bodies.
// The handler must never panic or answer 5xx, a rejected request must leave
// the campaign's graph untouched, and an accepted one must grow it by
// exactly the batch and report counts that match the campaign's own.
func FuzzApplyEdges(f *testing.F) {
	f.Add(`{"edges":[{"from":0,"to":5,"p":0.1}]}`)
	f.Add(`{"edges":[{"from":3,"to":9,"p":0.2},{"from":9,"to":0,"p":0.05}]}`) // node growth
	f.Add(`{"edges":[{"from":0,"to":1,"p":0.5}]}`)                            // duplicate of a base arc
	f.Add(`{"edges":[{"from":2,"to":4,"p":1.5}]}`)                            // probability out of range
	f.Add(`{"edges":[{"from":-1,"to":4,"p":0.1}]}`)                           // negative endpoint
	f.Add(`{"edges":[{"from":1,"to":6,"p":0.1}],"timeout_ms":50}`)
	f.Add(`{"edges":[],"timeout_ms":-3}`)
	f.Add(`{"edges":[{"from":0,"to":7,"p":0.1}],"bogus":1}`) // unknown field
	f.Add(`{"edges":[{"from":0,"to":2147483648,"p":0.1}]}`)  // past int32
	f.Add(`not json`)
	f.Add(`{}`)

	problem := fuzzProblem(f)
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<14 {
			t.Skip("oversized body")
		}
		s := fuzzServer(t, problem)
		campaign := s.campaign
		users, edges := campaign.Users(), campaign.Edges()

		w := fuzzCall(t, s.graphAppend, "/graph/append", body)
		if w.Code != http.StatusOK {
			if campaign.Users() != users || campaign.Edges() != edges {
				t.Fatalf("rejected append (%d) mutated the graph: %d/%d -> %d/%d",
					w.Code, users, edges, campaign.Users(), campaign.Edges())
			}
			return
		}
		var resp struct {
			Stats struct {
				EdgesAdded int `json:"edges_added"`
				NodesAdded int `json:"nodes_added"`
			} `json:"stats"`
			Users int `json:"users"`
			Edges int `json:"edges"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("append response: %v: %s", err, w.Body.String())
		}
		if resp.Users != campaign.Users() || resp.Edges != campaign.Edges() {
			t.Fatalf("response counts %d/%d, campaign %d/%d",
				resp.Users, resp.Edges, campaign.Users(), campaign.Edges())
		}
		if resp.Edges != edges+resp.Stats.EdgesAdded || resp.Users != users+resp.Stats.NodesAdded {
			t.Fatalf("growth mismatch: %d/%d + stats %+v -> %d/%d",
				users, edges, resp.Stats, resp.Users, resp.Edges)
		}
	})
}
