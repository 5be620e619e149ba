// Package bitvec implements fixed-length packed bit vectors with the
// bitwise operations used by the SR-SP speed-up technique (Sec. VI-D of
// the paper): each arc carries an N-bit filter vector and each vertex a
// per-level counting table, and sampling N walks simultaneously reduces to
// AND/OR/popcount over these vectors. The word-slice kernels
// (OrAndWords, AndAnyWords, AndPopCountWords, PopCountWords, AnyWords)
// run the same operations on rows carved from a shared slab, which is
// how package speedup stores its filters and counting tables; the
// Vector methods call them.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length bit vector. The zero value is an empty vector
// of length 0; use New to create one of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1. It panics if i is out of range.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// Reset sets every bit to 0.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that PopCount and
// Equal remain exact.
func (v *Vector) trim() {
	if rem := uint(v.n) & 63; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << rem) - 1
	}
}

// FromWords returns an n-bit vector holding a copy of words, which must
// have (n+63)/64 entries with the bits past n clear.
func FromWords(n int, words []uint64) *Vector {
	v := New(n)
	if len(words) != len(v.words) {
		panic(fmt.Sprintf("bitvec: %d words for %d bits", len(words), n))
	}
	copy(v.words, words)
	return v
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// Or sets v = v | o. The vectors must have equal length.
func (v *Vector) Or(o *Vector) {
	v.match(o)
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// And sets v = v & o. The vectors must have equal length.
func (v *Vector) And(o *Vector) {
	v.match(o)
	for i, w := range o.words {
		v.words[i] &= w
	}
}

// AndNot sets v = v &^ o. The vectors must have equal length.
func (v *Vector) AndNot(o *Vector) {
	v.match(o)
	for i, w := range o.words {
		v.words[i] &^= w
	}
}

// OrAnd sets v = v | (a & b) without allocating, the core update of the
// Speedup algorithm (Fig. 5, line 7): M_x[k+1] ∨= M_w[k] ∧ F_(w,x).
// All three vectors must have equal length.
func (v *Vector) OrAnd(a, b *Vector) {
	v.match(a)
	v.match(b)
	OrAndWords(v.words, a.words, b.words)
}

// OrAndWords sets dst[i] |= a[i] & b[i] for every word of dst; a and b
// must be at least as long.
func OrAndWords(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] |= a[i] & b[i]
	}
}

// AndAnyWords reports whether a & b has a set bit; b must be at least
// as long as a.
func AndAnyWords(a, b []uint64) bool {
	b = b[:len(a)]
	var x uint64
	for i, w := range a {
		x |= w & b[i]
	}
	return x != 0
}

func (v *Vector) match(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// PopCount returns the number of set bits (the 1-norm ‖v‖₁ of Eq. 16).
func (v *Vector) PopCount() int { return PopCountWords(v.words) }

// PopCountWords returns the number of set bits across ws.
func PopCountWords(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndPopCount returns ‖v & o‖₁ without materialising the intersection.
// The vectors must have equal length.
func (v *Vector) AndPopCount(o *Vector) int {
	v.match(o)
	return AndPopCountWords(v.words, o.words)
}

// AndPopCountWords returns ‖a & b‖₁ without materialising the
// intersection; b must be at least as long as a.
func AndPopCountWords(a, b []uint64) int {
	b = b[:len(a)]
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool { return AnyWords(v.words) }

// AnyWords reports whether any word of ws has a set bit.
func AnyWords(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range o.words {
		if v.words[i] != w {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. i may be any non-negative value.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i >> 6
	w := v.words[wi] >> (uint(i) & 63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// String renders the vector as a 0/1 string, lowest index first. Intended
// for tests and debugging of small vectors.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
