package ris

import (
	"testing"

	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// naiveTopSeeds is the reference O(V)-scan-per-selection greedy max-cover
// the CELF implementation must reproduce pick for pick: select the node
// covering the most uncovered sets, ties preferring the smaller id, until k
// picks or no node covers anything.
func naiveTopSeeds(s *Sketches, k int) []int32 {
	covered := make([]bool, len(s.sets))
	gain := make(map[int32]int, len(s.covers))
	for v, idxs := range s.covers {
		gain[v] = len(idxs)
	}
	var picked []int32
	for len(picked) < k {
		best := int32(-1)
		bestGain := 0
		for v, g := range gain {
			if g > bestGain || (g == bestGain && g > 0 && (best == -1 || v < best)) {
				best = v
				bestGain = g
			}
		}
		if best == -1 || bestGain == 0 {
			break
		}
		picked = append(picked, best)
		for _, idx := range s.covers[best] {
			if covered[idx] {
				continue
			}
			covered[idx] = true
			for _, member := range s.sets[idx] {
				if g, ok := gain[member]; ok && g > 0 {
					gain[member] = g - 1
				}
			}
		}
		delete(gain, best)
	}
	return picked
}

// TestTopSeedsCELFMatchesNaive asserts the lazy-greedy selection makes
// exactly the picks of the reference greedy on fixed-seed sketch sets over
// a realistic synthetic graph, for every prefix length.
func TestTopSeedsCELFMatchesNaive(t *testing.T) {
	p := gen.Facebook.Scaled(40) // 100 users
	g, err := p.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, sketches := range []int{50, 500, 4000} {
		s, err := generate(g, sketches, uint64(sketches))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10, g.NumNodes()} {
			want := naiveTopSeeds(s, k)
			got := s.TopSeeds(k)
			if len(got) != len(want) {
				t.Fatalf("sketches=%d k=%d: CELF picked %d seeds, naive %d (%v vs %v)",
					sketches, k, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sketches=%d k=%d: pick %d is %d, naive picked %d (%v vs %v)",
						sketches, k, i, got[i], want[i], got, want)
				}
			}
		}
	}
}
