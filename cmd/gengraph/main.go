// Command gengraph generates synthetic social networks and writes them as
// SNAP-style edge lists (gzip when -out ends in .gz).
//
// Dataset profiles mirror the paper's Table II:
//
//	gengraph -dataset Facebook -scale 10 -out fb.txt
//
// Raw generator access (the PPGG substitute):
//
//	gengraph -nodes 10000 -edges 100000 -eta 1.7 -clustering 0.6394 -out g.txt
//
// Watts–Strogatz small worlds — the large-scale bench profile; -probs=false
// drops the probability column so the output matches a raw SNAP download
// and exercises the ingestion probability models:
//
//	gengraph -smallworld -nodes 1000000 -k 10 -beta 0.1 -probs=false -out sw1m.txt.gz
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"s3crm/internal/gen"
	"s3crm/internal/gio"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "dataset profile (Facebook, Epinions, Google+, Douban)")
		scale      = flag.Int("scale", 1, "down-scale divisor for -dataset")
		smallworld = flag.Bool("smallworld", false, "generate a Watts–Strogatz small world (-nodes, -k, -beta)")
		nodes      = flag.Int("nodes", 0, "node count for the raw generators")
		edges      = flag.Int("edges", 0, "edge target for the pattern-preserving generator")
		kNear      = flag.Int("k", 10, "small world: nearest neighbours per node (even)")
		beta       = flag.Float64("beta", 0.1, "small world: rewiring probability")
		eta        = flag.Float64("eta", 2.5, "power-law exponent")
		clustering = flag.Float64("clustering", 0.6394, "clustering coefficient target")
		motifs     = flag.Int("motifs", 0, "motif stamping support (0 = nodes/40)")
		mutual     = flag.Bool("mutual", true, "add reciprocal friendship edges")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "output file; .gz compresses (default stdout)")
		probs      = flag.Bool("probs", true, "include the probability column in text output")
		ltnorm     = flag.Bool("ltnorm", false, "scale in-weights to sum ≤ 1 (the linear-threshold precondition; the generators' 1/in-degree weights already satisfy it)")
		stats      = flag.Bool("stats", false, "print degree/clustering statistics to stderr")
	)
	flag.Parse()

	g, err := generate(*dataset, *scale, *smallworld, *nodes, *edges, *kNear, *beta,
		*eta, *clustering, *motifs, *mutual, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	if *ltnorm {
		g = g.CapInWeights()
	}

	if *stats {
		s := g.Stats()
		cc := g.ApproxClustering(rng.New(*seed), 500)
		fmt.Fprintf(os.Stderr, "nodes=%d edges=%d meanOut=%.2f maxOut=%.0f eta≈%.2f clustering≈%.3f\n",
			s.Nodes, s.Edges, s.MeanOut, s.MaxOut, s.PowerLawExponent, cc)
	}

	if err := emit(g, *out, *probs); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

// emit writes the graph to path (stdout when empty), gzip-compressing when
// the name ends in .gz. Close errors are reported: gzip buffers its final
// block and trailer until Close, and the file's own Close is where a full
// disk surfaces — swallowing either would exit 0 on a truncated artifact.
func emit(g *graph.Graph, path string, probs bool) error {
	var w io.Writer = os.Stdout
	var closers []io.Closer
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		w = f
		if strings.HasSuffix(path, ".gz") {
			gz := gzip.NewWriter(f)
			closers = append(closers, gz)
			w = gz
		}
	}
	var err error
	if probs {
		err = gio.WriteEdgeList(w, g)
	} else {
		err = gio.WriteEdgeListPlain(w, g)
	}
	// Close innermost first (the gzip trailer must land before the file).
	for i := len(closers) - 1; i >= 0; i-- {
		if cerr := closers[i].Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func generate(dataset string, scale int, smallworld bool, nodes, edges, k int, beta float64,
	eta, clustering float64, motifs int, mutual bool, seed uint64) (*graph.Graph, error) {

	src := rng.New(seed)
	if dataset != "" {
		p, err := gen.PresetByName(dataset)
		if err != nil {
			return nil, err
		}
		return p.Scaled(scale).Generate(src)
	}
	if smallworld {
		if nodes <= 0 {
			return nil, fmt.Errorf("-smallworld needs -nodes")
		}
		return gen.WattsStrogatz(nodes, k, beta, src)
	}
	if nodes <= 0 || edges <= 0 {
		return nil, fmt.Errorf("need -dataset, -smallworld or both -nodes and -edges")
	}
	if motifs == 0 {
		motifs = nodes / 40
	}
	return gen.PatternPreserving(gen.PatternConfig{
		Nodes:        nodes,
		Edges:        edges,
		Eta:          eta,
		Clustering:   clustering,
		MotifSupport: motifs,
		Mutual:       mutual,
	}, src)
}
