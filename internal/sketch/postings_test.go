package sketch

import (
	"math/rand"
	"slices"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// checkPostings rebuilds the root and per-slot inverted indexes naively from
// roots and the member arena and compares them with the store's CSR postings
// for every node: each list must match, be strictly ascending, and the list
// lengths must sum to the sample and arena sizes. Ids past the index read as
// empty.
func checkPostings(t *testing.T, st *store) {
	t.Helper()
	n := st.g.NumNodes()
	wantRoot := make([][]int32, n)
	var wantSlot [kmax][][]int32
	for c := range wantSlot {
		wantSlot[c] = make([][]int32, n)
	}
	for i, r := range st.roots {
		wantRoot[r] = append(wantRoot[r], int32(i))
		for c := 0; c < kmax; c++ {
			for _, v := range st.members(i, c) {
				wantSlot[c][v] = append(wantSlot[c][v], int32(i))
			}
		}
	}
	check := func(what string, v int, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s postings of node %d = %v, want %v", what, v, got, want)
		}
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("%s postings of node %d not strictly ascending: %v", what, v, got)
			}
		}
	}
	rootSum, slotSum := 0, 0
	for v := 0; v < n; v++ {
		got := st.rootList(int32(v))
		check("root", v, got, wantRoot[v])
		rootSum += len(got)
		for c := 0; c < kmax; c++ {
			got := st.slotList(c, int32(v))
			check("slot", v, got, wantSlot[c][v])
			slotSum += len(got)
		}
	}
	if rootSum != len(st.roots) {
		t.Fatalf("root postings hold %d entries, want %d samples", rootSum, len(st.roots))
	}
	if slotSum != len(st.arena) {
		t.Fatalf("slot postings hold %d entries, want %d arena members", slotSum, len(st.arena))
	}
	if st.rootList(int32(n)) != nil || st.slotList(0, int32(n+5)) != nil {
		t.Fatal("postings past the index are not empty")
	}
}

// checkGates requires every filled gate-table row to equal a fresh α
// computation over the gates' current instance.
func checkGates(t *testing.T, ga *gates) {
	t.Helper()
	var dist [kmax + 1]float64
	var want [kmax]float64
	for r, ok := range ga.filled {
		if !ok {
			continue
		}
		ga.compute(int32(r), want[:], &dist)
		if !slices.Equal(ga.row(int32(r)), want[:]) {
			t.Fatalf("gate row %d = %v, want %v", r, ga.row(int32(r)), want)
		}
	}
}

// TestPostingsMatchReference checks the CSR postings against a naive
// rebuild at the three points they are (re)built: a first extension, a
// doubling extension that must keep the earlier samples as a bit-identical
// prefix, and a warm patch over a node-growing append that re-draws samples.
func TestPostingsMatchReference(t *testing.T) {
	for _, lt := range []bool{false, true} {
		name := "ic"
		if lt {
			name = "lt"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(17))
			inst := randomSketchInstance(t, r, 60, 600)
			pivots := standalonePivots(inst)
			u := buildUniverse(inst, pivots, universeCap)
			ga := newGates(inst)
			st1 := newStore(inst, u, ga, 31, lt)
			st2 := newStore(inst, u, ga, 32, lt)

			st1.extend(512, 2)
			checkPostings(t, st1)
			roots := slices.Clone(st1.roots)
			arena := slices.Clone(st1.arena)
			offs := slices.Clone(st1.offs)

			st1.extend(1024, 3)
			checkPostings(t, st1)
			if !slices.Equal(st1.roots[:512], roots) ||
				!slices.Equal(st1.offs[:len(offs)], offs) ||
				!slices.Equal(st1.arena[:len(arena)], arena) {
				t.Fatal("doubling extension rewrote the earlier samples")
			}
			st2.extend(1024, 1)
			checkPostings(t, st2)

			// Append edges into covered nodes plus edges reaching past the
			// node set in both directions, then patch.
			n := int32(inst.G.NumNodes())
			var batch []graph.Edge
			seen := map[[2]int32]bool{}
			for len(batch) < 40 {
				from, to := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
				if from == to || seen[[2]int32{from, to}] || inst.G.NeighborRank(from, to) >= 0 {
					continue
				}
				seen[[2]int32{from, to}] = true
				batch = append(batch, graph.Edge{From: from, To: to, P: 0.05})
			}
			batch = append(batch,
				graph.Edge{From: n, To: st1.roots[0], P: 0.05},
				graph.Edge{From: st1.roots[1], To: n + 2, P: 0.05},
				graph.Edge{From: n + 1, To: n + 2, P: 0.05})
			g2, err := inst.G.WithEdges(batch)
			if err != nil {
				t.Fatal(err)
			}
			inst2 := &diffusion.Instance{G: g2, Budget: inst.Budget}
			w := &Warm{inst: inst, lt: lt, u: u, ga: ga, st1: st1, st2: st2}
			w.NoteChurn(inst2, batch, int64(inst.G.NumEdges()))
			w.patch(2)
			if w.Redrawn == 0 {
				t.Fatal("patch re-drew no sample; the check would not cover a rebuild")
			}
			if got, want := len(ga.filled), g2.NumNodes(); got != want {
				t.Fatalf("gate table covers %d nodes after a node-growing patch, want %d", got, want)
			}
			checkPostings(t, st1)
			checkPostings(t, st2)
			checkGates(t, ga)
		})
	}
}
