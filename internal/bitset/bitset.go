// Package bitset provides the packed word-level bit operations shared by
// the diffusion engines. The 64-world block is the unit of bit-parallel
// evaluation — one machine word holds one outcome bit per world — so every
// engine masks world ranges the same way; keeping the helpers here prevents
// each engine from growing a private copy.
package bitset

// WordBits is the number of bits (worlds) in one word; a bit index i
// falls in word i/WordBits at offset i&WordMask.
const (
	WordBits = 64
	WordMask = WordBits - 1
)

// RangeMask returns the word mask with bits [lo, hi) set; lo and hi are
// offsets within one word, 0 ≤ lo ≤ hi ≤ 64.
func RangeMask(lo, hi int) uint64 {
	if hi <= lo {
		return 0
	}
	return ^uint64(0) >> uint(WordBits-(hi-lo)) << uint(lo)
}
