// Package bitset provides the packed word-level bit operations shared by
// the diffusion engines. The 64-world block is the unit of bit-parallel
// evaluation — one machine word holds one outcome bit per world — so every
// engine indexes, masks and iterates []uint64 rows the same way; keeping
// the helpers here prevents each engine from growing a private copy.
package bitset

import "math/bits"

// Bit indexes convert to (word, offset) pairs as i>>WordShift and
// i&WordMask.
const (
	WordShift = 6
	WordBits  = 1 << WordShift
	WordMask  = WordBits - 1
)

// Set sets bit i of row.
func Set(row []uint64, i int) { row[i>>WordShift] |= 1 << (uint(i) & WordMask) }

// Clear clears bit i of row.
func Clear(row []uint64, i int) { row[i>>WordShift] &^= 1 << (uint(i) & WordMask) }

// Row returns the i-th words-wide row of a packed row-major matrix.
func Row(buf []uint64, i, words int) []uint64 { return buf[i*words : (i+1)*words] }

// RangeMask returns the word mask with bits [lo, hi) set; lo and hi are
// offsets within one word, 0 ≤ lo ≤ hi ≤ 64.
func RangeMask(lo, hi int) uint64 {
	if hi <= lo {
		return 0
	}
	return ^uint64(0) >> uint(WordBits-(hi-lo)) << uint(lo)
}

// ForEach invokes fn with the index of every set bit below limit, in
// ascending order.
func ForEach(row []uint64, limit int, fn func(int)) {
	for wi, word := range row {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			i := wi<<WordShift | b
			if i >= limit {
				return
			}
			fn(i)
		}
	}
}
