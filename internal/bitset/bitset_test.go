package bitset

import "testing"

// count returns the number of set bits in row.
func count(row []uint64) int {
	n := 0
	ForEach(row, len(row)*WordBits, func(int) { n++ })
	return n
}

func TestSetGetClear(t *testing.T) {
	row := make([]uint64, 3)
	has := func(i int) bool { return row[i>>WordShift]&(1<<(uint(i)&WordMask)) != 0 }
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		if has(i) {
			t.Fatalf("bit %d set in fresh row", i)
		}
		Set(row, i)
		if !has(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := count(row); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	Clear(row, 64)
	if has(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := count(row); got != 6 {
		t.Fatalf("count after Clear = %d, want 6", got)
	}
}

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

func TestRow(t *testing.T) {
	buf := make([]uint64, 6)
	for i := range buf {
		buf[i] = uint64(i)
	}
	r := Row(buf, 1, 2)
	if len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Fatalf("Row(buf, 1, 2) = %v, want [2 3]", r)
	}
}

func TestForEach(t *testing.T) {
	row := make([]uint64, 3)
	want := []int{0, 5, 63, 64, 100, 130}
	for _, i := range want {
		Set(row, i)
	}
	var got []int
	ForEach(row, 192, func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	// The limit cuts the iteration short mid-word.
	got = got[:0]
	ForEach(row, 100, func(i int) { got = append(got, i) })
	if len(got) != 4 || got[3] != 64 {
		t.Fatalf("ForEach limited to 100 visited %v, want [0 5 63 64]", got)
	}
}
