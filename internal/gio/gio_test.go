package gio

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"s3crm/internal/graph"
)

func sample(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.4},
		{From: 1, To: 3, P: 0.5}, {From: 2, To: 3, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readEdgeList loads SNAP text keeping file probabilities (0 when the column
// is absent), self loops and rejecting duplicates.
func readEdgeList(r io.Reader) (*graph.Graph, error) {
	g, _, err := LoadEdgeList(r, LoadOptions{
		Model:         ModelFile,
		KeepSelfLoops: true,
		Duplicates:    graph.DupError,
	})
	return g, err
}

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
0	1
0 2
1	2
`
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListRemapsSparseIds(t *testing.T) {
	in := "1000 2000\n2000 30000\n"
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("sparse ids not densified: %d nodes", g.NumNodes())
	}
	// first-appearance order: 1000→0, 2000→1, 30000→2
	if _, ok := g.EdgeProb(0, 1); !ok {
		t.Fatal("edge 1000→2000 not mapped to 0→1")
	}
	if _, ok := g.EdgeProb(1, 2); !ok {
		t.Fatal("edge 2000→30000 not mapped to 1→2")
	}
}

func TestReadEdgeListWithProbColumn(t *testing.T) {
	in := "0 1 0.25\n"
	g, err := readEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.EdgeProb(0, 1)
	if !ok || p != 0.25 {
		t.Fatalf("prob column not parsed: %v %v", p, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",            // too few fields
		"0 1 2 3\n",      // too many fields
		"x 1\n",          // bad from
		"0 y\n",          // bad to
		"-1 2\n",         // negative id
		"0 1 notaprob\n", // bad probability
		"0 1 7.5\n",      // probability out of range (graph layer rejects)
	}
	for _, in := range cases {
		if _, err := readEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		at, ap := a.OutEdges(v)
		bt, bp := b.OutEdges(v)
		if len(at) != len(bt) {
			t.Fatalf("node %d degree mismatch", v)
		}
		for i := range at {
			if at[i] != bt[i] || ap[i] != bp[i] {
				t.Fatalf("node %d adjacency mismatch at %d: (%d,%g) vs (%d,%g)",
					v, i, at[i], ap[i], bt[i], bp[i])
			}
		}
	}
}
