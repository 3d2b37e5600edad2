package sketch

import (
	"math/rand"
	"reflect"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// randomSketchInstance builds a moderately dense random instance whose fixed
// low edge probability keeps in-weight sums comfortably under the LT bound.
func randomSketchInstance(t *testing.T, r *rand.Rand, n, m int) *diffusion.Instance {
	t.Helper()
	taken := make(map[int64]bool)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		from, to := int32(r.Intn(n)), int32(r.Intn(n))
		k := int64(from)<<32 | int64(to)
		if from == to || taken[k] {
			continue
		}
		taken[k] = true
		edges = append(edges, graph.Edge{From: from, To: to, P: 0.01 + 0.02*r.Float64()})
	}
	return uniformInstance(t, n, edges, 1, float64(n))
}

// TestStoreParallelBitIdentical is the build's determinism contract at the
// store level: extending a sample collection with any worker count must
// produce byte-identical state — arena, offsets and CSR postings — because
// every random decision is keyed by the global sample index, roots are
// assigned sequentially, shards merge in ascending sample order and the
// postings are a counting pass over the merged result. Two extend calls per build also exercise the
// doubling path (the second call must treat the first's samples as an
// immutable prefix).
func TestStoreParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inst := randomSketchInstance(t, r, 60, 600)
	pivots := standalonePivots(inst)
	for _, lt := range []bool{false, true} {
		name := "ic"
		if lt {
			name = "lt"
		}
		t.Run(name, func(t *testing.T) {
			build := func(workers int) *store {
				u := buildUniverse(inst, pivots, universeCap)
				ga := newGates(inst)
				st := newStore(inst, u, ga, 99, lt)
				st.extend(512, workers)
				st.extend(1024, workers)
				return st
			}
			base := build(1)
			if len(base.arena) == 0 {
				t.Fatal("degenerate instance: no sample ever gained a member")
			}
			for _, w := range []int{2, 3, 8} {
				st := build(w)
				if !reflect.DeepEqual(st.roots, base.roots) {
					t.Fatalf("workers=%d: roots diverged", w)
				}
				if !reflect.DeepEqual(st.marks, base.marks) {
					t.Fatalf("workers=%d: watermarks diverged", w)
				}
				if !reflect.DeepEqual(st.arena, base.arena) {
					t.Fatalf("workers=%d: member arena diverged", w)
				}
				if !reflect.DeepEqual(st.offs, base.offs) {
					t.Fatalf("workers=%d: slot offsets diverged", w)
				}
				if !reflect.DeepEqual(st.root, base.root) {
					t.Fatalf("workers=%d: root postings diverged", w)
				}
				if !reflect.DeepEqual(st.slot, base.slot) {
					t.Fatalf("workers=%d: slot postings diverged", w)
				}
			}
		})
	}
}

// TestSolveParallelBitIdentical lifts the contract to the solver: the whole
// adaptive run — schedule, moves, deployment — must not depend on Workers.
func TestSolveParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	inst := randomSketchInstance(t, r, 60, 600)
	pivots := standalonePivots(inst)
	solve := func(workers int) *Result {
		res, err := Solve(Config{
			Inst: inst, Pivots: pivots, Seed: 42,
			Epsilon: 0.1, Delta: 0.01, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := solve(1)
	for _, w := range []int{2, 3, 8} {
		res := solve(w)
		if !res.Deployment.Equal(base.Deployment) {
			t.Fatalf("workers=%d: deployment diverged", w)
		}
		if res.Samples != base.Samples || res.Rounds != base.Rounds {
			t.Fatalf("workers=%d: schedule diverged: %d/%d vs %d/%d",
				w, res.Rounds, res.Samples, base.Rounds, base.Samples)
		}
		if res.LB != base.LB || res.UB != base.UB || res.Certified != base.Certified {
			t.Fatalf("workers=%d: certification diverged", w)
		}
		if !reflect.DeepEqual(res.Steps, base.Steps) {
			t.Fatalf("workers=%d: move sequence diverged", w)
		}
		if res.Workers != w {
			t.Fatalf("Workers = %d, want %d", res.Workers, w)
		}
	}
}
