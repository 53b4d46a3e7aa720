package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Weighted distance kernel. The deviation engine's cache rows generalise
// from BFS levels to weighted shortest-path distances: arcs carry
// positive int32 weights and whole rows are filled by Dijkstra, one
// source per task on the shared worker pool, through the same settle
// loop (wdelta.go) that repairs weighted rows in place. Weighted
// shortest-path distances are unique values, so every row is
// bit-identical to the tests' scalar array-scan Dijkstra reference.
//
// Offsets at merge time. The engine consumes rows through min-merge
// kernels computing "distance via anchor v = 1 + row_v[w]". Weighted
// deviation distances are w(u,v) + wdist_{G-u}(v, w) instead, so rows
// are stored raw and each kernel adds its anchor's offset
// off_v = w(u,v) - 1 as the row enters the merge (summerge.go):
//
//	1 + min_v (wdist_{G-u}(v, w) + off_v)
//
// is exactly the weighted deviation distance. Raw rows do not depend
// on u, so one weighted distance matrix of the whole graph serves every
// player's undamaged rows. The suffix-bound inequality
// row_v[w] + off_v >= vec[w] - vec[v] survives the offsets (they are
// nonnegative). At unit weights every offset is zero and the rows
// coincide bit-for-bit with the BFS cache.

// FitsWeightedCache reports whether weighted distances plus an anchor
// offset, over an n-vertex graph with weights in [1, maxW], stay
// strictly below the InfDist sentinel: any finite sum is at most
// (n+1)·maxW.
// Callers must refuse to build weighted caches past this bound (the
// engine then falls back to per-candidate Dijkstra evaluation).
func FitsWeightedCache(n int, maxW int32) bool {
	return maxW >= 1 && int64(n+2)*int64(maxW) < int64(InfDist)
}

// WeightChange is one netted entry of a Weights change log: the pair
// {U,V} moved from Old to New since the queried generation.
type WeightChange struct {
	U, V     int32
	Old, New int32
}

// wchange is the raw log entry behind WeightChange.
type wchange struct {
	gen      int64
	u, v     int32
	old, new int32
}

// Weights assigns symmetric positive arc weights to vertex pairs: a
// deterministic seeded base in [1, max] (splitmix-style hash of the
// pair, so any subset of pairs is addressable without materialising
// n² values) plus sparse overrides installed by Set. Of(u,u) is 0.
// Mutations bump a generation and feed a bounded change log so weighted
// caches a few generations behind resync from the exact weight deltas
// (ChangesSince), mirroring the Digraph mutation journal. A Weights is
// safe for concurrent readers only while no Set is in flight.
type Weights struct {
	n    int
	max  int32
	seed int64
	over map[[2]int32]int32

	gen     int64
	logBase int64
	logCap  int
	log     []wchange
}

// NewWeights returns symmetric pair weights over n vertices drawn
// deterministically from seed in [1, max] (max < 1 is treated as unit
// weights). The change log retains the last ~4n+64 mutations.
func NewWeights(n int, seed int64, max int32) *Weights {
	if max < 1 {
		max = 1
	}
	return &Weights{
		n:      n,
		max:    max,
		seed:   seed,
		over:   make(map[[2]int32]int32),
		logCap: 4*n + 64,
	}
}

// N returns the vertex count the weights are defined over.
func (w *Weights) N() int { return w.n }

// MaxW returns the inclusive weight upper bound.
func (w *Weights) MaxW() int32 { return w.max }

// Gen returns the weights generation (number of effective Set calls).
func (w *Weights) Gen() int64 { return w.gen }

// Of returns the weight of the pair {u,v} (0 when u == v).
func (w *Weights) Of(u, v int) int32 {
	if u == v {
		return 0
	}
	if u > v {
		u, v = v, u
	}
	if ov, ok := w.over[[2]int32{int32(u), int32(v)}]; ok {
		return ov
	}
	return w.baseOf(u, v)
}

// baseOf is the seeded hash weight of the normalised pair u < v.
func (w *Weights) baseOf(u, v int) int32 {
	if w.max <= 1 {
		return 1
	}
	x := uint64(w.seed)*0x9E3779B97F4A7C15 + uint64(u)<<32 + uint64(v) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return 1 + int32(x%uint64(w.max))
}

// Set installs weight val on the pair {u,v}. Weights stay in [1, MaxW]
// so the n²·MaxW disconnection penalty keeps dominating every finite
// cost. A Set that does not change the pair's weight is a no-op and
// does not advance the generation.
func (w *Weights) Set(u, v int, val int32) error {
	if u == v {
		return fmt.Errorf("graph: weight of self-pair {%d,%d}", u, v)
	}
	if u < 0 || v < 0 || u >= w.n || v >= w.n {
		return fmt.Errorf("graph: weight pair {%d,%d} out of range [0,%d)", u, v, w.n)
	}
	if val < 1 || val > w.max {
		return fmt.Errorf("graph: weight %d out of range [1,%d]", val, w.max)
	}
	if u > v {
		u, v = v, u
	}
	old := w.Of(u, v)
	if old == val {
		return nil
	}
	w.over[[2]int32{int32(u), int32(v)}] = val
	w.gen++
	if w.logCap > 0 && len(w.log) >= w.logCap {
		half := len(w.log) / 2
		w.logBase = w.log[half-1].gen
		w.log = append(w.log[:0], w.log[half:]...)
	}
	w.log = append(w.log, wchange{gen: w.gen, u: int32(u), v: int32(v), old: old, new: val})
	return nil
}

// ChangesSince returns the net weight delta of every pair mutated after
// generation since: first old value, last new value, pairs whose net
// change cancels dropped, sorted lexicographically. ok is false when
// the log no longer covers (since, Gen()] — callers must fall back to a
// full weighted refill.
func (w *Weights) ChangesSince(since int64) (changes []WeightChange, ok bool) {
	if since == w.gen {
		return nil, true
	}
	if since < w.logBase || since > w.gen {
		return nil, false
	}
	type oldNew struct{ old, new int32 }
	net := make(map[[2]int32]oldNew)
	for i := range w.log {
		e := &w.log[i]
		if e.gen <= since {
			continue
		}
		key := [2]int32{e.u, e.v}
		if cur, seen := net[key]; seen {
			net[key] = oldNew{old: cur.old, new: e.new}
		} else {
			net[key] = oldNew{old: e.old, new: e.new}
		}
	}
	for key, on := range net {
		if on.old == on.new {
			continue
		}
		changes = append(changes, WeightChange{U: key[0], V: key[1], Old: on.old, New: on.new})
	}
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].U != changes[j].U {
			return changes[i].U < changes[j].U
		}
		return changes[i].V < changes[j].V
	})
	return changes, true
}

// WEdge is one weighted undirected edge of a repair delta.
type WEdge struct {
	A, B, W int32
}

// WCSR is an immutable weighted compressed-sparse-row adjacency: arc k
// of vertex v targets Nbrs[k] with weight W[k], for k in
// [Indptr[v], Indptr[v+1]). Safe for any number of concurrent readers.
type WCSR struct {
	Indptr []int32
	Nbrs   []int32
	W      []int32
}

// N returns the number of vertices.
func (c *WCSR) N() int { return len(c.Indptr) - 1 }

// NewWCSRExcluding packs a with vertex u deleted (u's row empty, u
// dropped from every neighbour list) and per-arc weights from wts —
// the weighted analogue of NewCSRExcluding.
func NewWCSRExcluding(a Und, wts *Weights, u int) *WCSR {
	n := len(a)
	indptr := make([]int32, n+1)
	total := 0
	for v, nb := range a {
		if v == u {
			indptr[v+1] = int32(total)
			continue
		}
		for _, w := range nb {
			if w != u {
				total++
			}
		}
		indptr[v+1] = int32(total)
	}
	nbrs := make([]int32, 0, total)
	ws := make([]int32, 0, total)
	for v, nb := range a {
		if v == u {
			continue
		}
		for _, w := range nb {
			if w != u {
				nbrs = append(nbrs, int32(w))
				ws = append(ws, wts.Of(v, w))
			}
		}
	}
	return &WCSR{Indptr: indptr, Nbrs: nbrs, W: ws}
}

// DistanceRowsInto fills dst (length n*n) with weighted distances over
// c: dst[v*n+w] = wdist(v, w), InfDist when unreachable. Sources run in
// parallel over the worker pool, each seeded alone in an all-InfDist
// row and settled by the heap loop of the in-place repair.
func (c *WCSR) DistanceRowsInto(dst []int32) {
	n := c.N()
	parallelRange(n, 64, func() *[]int64 { return new([]int64) }, func(h *[]int64, src int) {
		row := dst[src*n : (src+1)*n]
		for i := range row {
			row[i] = InfDist
		}
		row[src] = 0
		*h = c.settle(row, append((*h)[:0], int64(src)), -1)
	})
}

// heapPush inserts e into the binary min-heap h and returns the heap.
// Entries pack dist<<32|vertex; adjusted distances stay below
// InfDist < 2^31, so the packed keys order by distance first.
func heapPush(h []int64, e int64) []int64 {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes and returns the minimum of the binary min-heap h.
func heapPop(h []int64) (int64, []int64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}

// ResetUnderlying repacks c as the weighted CSR of the whole underlying
// graph U(d) under wts, reusing c's buffers — the weighted counterpart
// of CSR.ResetUnderlying.
func (c *WCSR) ResetUnderlying(d *Digraph, wts *Weights) {
	c.Indptr, c.Nbrs = packUnderlying(d, c.Indptr, c.Nbrs)
	c.W = slices.Grow(c.W[:0], len(c.Nbrs))[:len(c.Nbrs)]
	for v := 0; v < d.N(); v++ {
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			c.W[k] = wts.Of(v, int(c.Nbrs[k]))
		}
	}
}
