package bitset

import "testing"

func TestRangeMask(t *testing.T) {
	cases := []struct {
		lo, hi int
		want   uint64
	}{
		{0, 0, 0},
		{5, 5, 0},
		{7, 3, 0},
		{0, 1, 1},
		{0, 64, ^uint64(0)},
		{1, 64, 0xfffffffffffffffe},
		{0, 63, ^uint64(0) >> 1},
		{4, 8, 0xf0},
	}
	for _, tc := range cases {
		if got := RangeMask(tc.lo, tc.hi); got != tc.want {
			t.Errorf("RangeMask(%d, %d) = %#x, want %#x", tc.lo, tc.hi, got, tc.want)
		}
	}
}
