package gio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// Probability models accepted by LoadOptions.Model: how edge influence
// probabilities are assigned when ingesting an external edge list.
const (
	// ModelFile keeps the probability column of the file (absent columns
	// read as 0 — callers typically fall back to ModelWeightedCascade when
	// LoadStats.HasProbColumn reports no column at all).
	ModelFile = "file"
	// ModelUniform assigns the single probability LoadOptions.UniformP to
	// every edge — the constant-p setting of the classic IC literature.
	ModelUniform = "uniform"
	// ModelWeightedCascade assigns P(e(u,v)) = 1/indegree(v), the paper's
	// standard weighting (computed after self-loop and duplicate handling,
	// so dropped arcs do not inflate the in-degrees).
	ModelWeightedCascade = "wc"
	// ModelTrivalency draws each edge's probability from the palette
	// {0.1, 0.01, 0.001} by a stateless hash of the re-mapped endpoint pair
	// and LoadOptions.Seed: deterministic for a given file and seed, with
	// no sequential random stream to keep in sync.
	ModelTrivalency = "trivalency"
)

// Models lists the ingestion probability models in documentation order.
func Models() []string {
	return []string{ModelFile, ModelUniform, ModelWeightedCascade, ModelTrivalency}
}

// LoadOptions configures LoadEdgeList. The zero value reads the file's
// probability column, skips self-loops and keeps the first occurrence of
// duplicate arcs — the forgiving defaults real SNAP downloads need.
type LoadOptions struct {
	// Model selects the probability assignment; "" means ModelFile.
	Model string
	// UniformP is ModelUniform's probability (default 0.1).
	UniformP float64
	// Seed drives ModelTrivalency's per-edge hash (default 1).
	Seed uint64
	// KeepSelfLoops retains u→u arcs instead of dropping them. The
	// propagation model gives a self-loop no meaning (a user cannot redeem
	// their own coupon), so the default drops and counts them.
	KeepSelfLoops bool
	// Duplicates selects the duplicate-arc policy (default
	// graph.DupKeepFirst; graph.DupError restores strict validation).
	Duplicates graph.DupPolicy
	// NormalizeLT scales each node's in-weights down to sum to at most 1
	// after probability assignment (graph.CapInWeights) — the
	// linear-threshold live-edge precondition. ModelWeightedCascade
	// satisfies the bound by construction and passes through bit-identical;
	// the other models may overshoot it on high-in-degree nodes.
	NormalizeLT bool
}

func (o LoadOptions) withDefaults() (LoadOptions, error) {
	if o.Model == "" {
		o.Model = ModelFile
	}
	switch o.Model {
	case ModelFile, ModelUniform, ModelWeightedCascade, ModelTrivalency:
	default:
		return o, fmt.Errorf("gio: unknown probability model %q (want one of %v)", o.Model, Models())
	}
	if o.UniformP == 0 {
		o.UniformP = 0.1
	}
	if o.UniformP < 0 || o.UniformP > 1 {
		return o, fmt.Errorf("gio: uniform probability %v outside [0,1]", o.UniformP)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// LoadStats reports what the streaming loader saw and resolved.
type LoadStats struct {
	Nodes         int   // distinct node ids (densely re-mapped)
	Edges         int   // edges in the final graph
	Lines         int64 // data lines parsed
	Comments      int64 // comment/blank lines skipped
	SelfLoops     int64 // u→u arcs dropped (0 when KeepSelfLoops)
	Duplicates    int64 // repeated arcs dropped under DupKeepFirst
	HasProbColumn bool  // at least one line carried a third column
}

// LoadEdgeList streams SNAP-style text ("from<ws>to" or "from<ws>to<ws>prob"
// per line, '#' comments, arbitrary non-negative ids densely re-mapped in
// first-appearance order) into a CSR graph without materializing an edge
// struct per line: arcs accumulate in the columnar StreamBuilder and are
// counting-sorted straight into the final representation. Probability
// assignment follows opts.Model.
func LoadEdgeList(r io.Reader, opts LoadOptions) (*graph.Graph, LoadStats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, LoadStats{}, err
	}
	var stats LoadStats
	b := graph.NewStreamBuilderAuto()
	ids := make(map[int64]int32)
	intern := func(raw int64) int32 {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := int32(len(ids))
		ids[raw] = id
		return id
	}
	needProb := opts.Model == ModelFile
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := int64(0)
	for sc.Scan() {
		lineNo++
		line := trimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			stats.Comments++
			continue
		}
		stats.Lines++
		f0, rest, err := nextField(line)
		if err != nil {
			return nil, stats, fmt.Errorf("gio: line %d: bad from id: %w", lineNo, err)
		}
		f1, rest, err := nextField(rest)
		if err != nil {
			return nil, stats, fmt.Errorf("gio: line %d: bad to id: %w", lineNo, err)
		}
		from, err := parseID(f0)
		if err != nil {
			return nil, stats, fmt.Errorf("gio: line %d: bad from id: %w", lineNo, err)
		}
		to, err := parseID(f1)
		if err != nil {
			return nil, stats, fmt.Errorf("gio: line %d: bad to id: %w", lineNo, err)
		}
		p := 0.0
		if len(rest) > 0 {
			f2, tail, err := nextField(rest)
			if err != nil || len(trimSpace(tail)) > 0 {
				return nil, stats, fmt.Errorf("gio: line %d: want 2 or 3 fields", lineNo)
			}
			p, err = strconv.ParseFloat(string(f2), 64)
			if err != nil {
				return nil, stats, fmt.Errorf("gio: line %d: bad probability: %w", lineNo, err)
			}
			stats.HasProbColumn = true
		}
		if from == to && !opts.KeepSelfLoops {
			stats.SelfLoops++
			// Interned anyway: a node whose only mention is a self-loop still
			// exists (matching how SNAP reports node counts).
			intern(from)
			continue
		}
		u, v := intern(from), intern(to)
		if needProb && len(rest) > 0 {
			if p < 0 || p > 1 {
				return nil, stats, fmt.Errorf("gio: line %d: probability %v outside [0,1]", lineNo, p)
			}
			err = b.AddProb(u, v, p)
		} else {
			err = b.Add(u, v)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("gio: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("gio: scanning edge list: %w", err)
	}
	g, bstats, err := b.Build(opts.Duplicates, probAssign(opts))
	if err != nil {
		return nil, stats, fmt.Errorf("gio: %w", err)
	}
	if opts.NormalizeLT {
		g = g.CapInWeights()
	}
	stats.Duplicates = int64(bstats.Duplicates)
	stats.Nodes = g.NumNodes()
	stats.Edges = g.NumEdges()
	// The graph is sized by max interned id; isolated trailing interned ids
	// (self-loop-only nodes) can exceed the arcs' ids, so pad when needed.
	if want := len(ids); want > stats.Nodes {
		g, err = g.PadNodes(want)
		if err != nil {
			return nil, stats, fmt.Errorf("gio: %w", err)
		}
		stats.Nodes = want
	}
	return g, stats, nil
}

// LoadEdgeListFile opens path — transparently un-gzipping when the content
// is gzip-compressed, whatever the extension says — and streams it through
// LoadEdgeList.
func LoadEdgeListFile(path string, opts LoadOptions) (*graph.Graph, LoadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadStats{}, fmt.Errorf("gio: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var r io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, LoadStats{}, fmt.Errorf("gio: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	g, stats, err := LoadEdgeList(r, opts)
	if err != nil {
		return nil, stats, fmt.Errorf("%w (%s)", err, path)
	}
	return g, stats, nil
}

// probAssign maps the load options to the builder's probability hook.
func probAssign(opts LoadOptions) graph.ProbAssign {
	switch opts.Model {
	case ModelUniform:
		p := opts.UniformP
		return func(_, _ int32, _ int32) float64 { return p }
	case ModelWeightedCascade:
		return func(_, _ int32, inDeg int32) float64 {
			if inDeg > 0 {
				return 1 / float64(inDeg)
			}
			return 0
		}
	case ModelTrivalency:
		coin := rng.NewCoin(opts.Seed)
		palette := [...]float64{0.1, 0.01, 0.001}
		return func(from, to int32, _ int32) float64 {
			u := coin.Flip(uint64(uint32(from)), uint64(uint32(to)))
			i := int(u * float64(len(palette)))
			if i >= len(palette) {
				i = len(palette) - 1
			}
			return palette[i]
		}
	default: // ModelFile keeps the recorded column
		return nil
	}
}

// trimSpace trims ASCII whitespace from both ends without allocating.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// nextField splits the leading whitespace-delimited field from line.
func nextField(line []byte) (field, rest []byte, err error) {
	line = trimSpace(line)
	if len(line) == 0 {
		return nil, nil, fmt.Errorf("missing field")
	}
	i := 0
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	return line[:i], line[i:], nil
}

// parseID parses a non-negative decimal node id from raw bytes without the
// string round-trip strconv would need.
func parseID(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty id")
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid id %q", b)
		}
		v = v*10 + int64(c-'0')
		if v > 1<<40 {
			return 0, fmt.Errorf("id %q out of range", b)
		}
	}
	return v, nil
}
