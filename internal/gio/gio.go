// Package gio reads and writes graphs in the formats the reproduction uses:
//
//   - SNAP-style edge-list text ("FromNodeId\tToNodeId" per line, '#'
//     comments), the format of the datasets in Table II of the paper, with
//     an optional third probability column;
//   - JSON scenarios: a graph plus its cost model and budget.
//
// The module is fully offline, so in practice these are exercised by the
// CLIs against locally generated graphs, but the SNAP reader means a user
// with the original Facebook/Epinions/Google+ downloads can feed them in
// unchanged.
package gio

import (
	"bufio"
	"fmt"
	"io"

	"s3crm/internal/graph"
)

// WriteEdgeList emits the graph as SNAP-style text with the probability
// column included.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		ts, ps := g.OutEdges(v)
		for i := range ts {
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\n", v, ts[i], ps[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListPlain emits the graph as bare SNAP text — "from<TAB>to" with
// no probability column — the shape of the published datasets, which is what
// exercises an ingestion probability model end-to-end.
func WriteEdgeListPlain(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		ts, _ := g.OutEdges(v)
		for _, t := range ts {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
