package main

import (
	"math"
	"sort"
)

// rng64 is splitmix64: a tiny generator whose stream is fixed by this
// file alone, so request streams never change with the Go release or
// with the program under test.
type rng64 struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng64 {
	r := &rng64{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng64) intn(n int) int { return int(r.float() * float64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng64) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws vertices with probability ∝ 1/rank^s, where ranks are a
// seeded permutation of the vertex ids (so the hot set is not just the
// low ids, which R-MAT already makes special).
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, r *rng64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: r.perm(n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(r *rng64) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i == len(z.cdf) {
		i--
	}
	return z.perm[i]
}

// distinct draws k distinct vertices of [0, n) other than skip, in draw
// order.
func distinct(r *rng64, n, k, skip int) []int {
	out := make([]int, 0, k)
	seen := map[int]bool{skip: true}
	for len(out) < k {
		v := r.intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
