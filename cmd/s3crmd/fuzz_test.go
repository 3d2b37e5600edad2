package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"s3crm"
)

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

	problem, err := s3crm.NewProblem(8).
		AddEdge(0, 1, 0.5).AddEdge(1, 2, 0.4).AddEdge(2, 3, 0.3).
		AddEdge(3, 4, 0.2).AddEdge(4, 0, 0.1).
		Budget(8).Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<14 {
			t.Skip("oversized body")
		}
		campaign, err := problem.NewCampaign(s3crm.WithSamples(16), s3crm.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		s := &server{problem: problem, campaign: campaign,
			defaults: defaults{Engine: "mc", Samples: 16}}
		users, edges := campaign.Users(), campaign.Edges()

		req := httptest.NewRequest(http.MethodPost, "/graph/append", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.graphAppend(w, req)

		if w.Code >= 500 && w.Code != http.StatusGatewayTimeout && w.Code != http.StatusServiceUnavailable {
			t.Fatalf("append answered %d: %s", w.Code, w.Body.String())
		}
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
