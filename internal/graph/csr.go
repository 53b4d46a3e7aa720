package graph

import (
	"math/bits"
	"slices"
)

// Flat compressed-sparse-row adjacency. The pointer-per-vertex layout of
// Und is convenient for mutation but hostile to the cache during bulk BFS
// work: every neighbour list is a separate allocation. CSR packs the whole
// adjacency into two flat int32 arrays, so the distance-matrix fill phase
// of the deviation engine (internal/core) streams memory linearly and the
// per-row BFS touches no pointers at all.

// InfDist is the "unreachable" sentinel used by CSR distance rows. It is
// large enough that min-merges over rows never have to special-case it
// (InfDist+1 does not overflow int32) while any finite distance, at most
// n-1 < 2^31, stays below it.
const InfDist int32 = 1 << 30

// CSR is an immutable compressed-sparse-row view of an undirected
// adjacency: the neighbours of v are Nbrs[Indptr[v]:Indptr[v+1]]. A CSR is
// safe for concurrent use by any number of readers.
type CSR struct {
	Indptr []int32 // length n+1, monotone
	Nbrs   []int32 // length sum of degrees
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Indptr) - 1 }

// NewCSR packs a into compressed-sparse-row form.
func NewCSR(a Und) *CSR {
	return newCSR(a, -1)
}

// NewCSRExcluding packs a with vertex u deleted: u's row is empty and u is
// dropped from every neighbour list. BFS over the result computes
// distances in G - u, the quantity the deviation engine caches (a shortest
// path from a deviating player never revisits the player, so distances
// from every anchor in G - u determine every deviated distance).
func NewCSRExcluding(a Und, u int) *CSR {
	return newCSR(a, u)
}

func newCSR(a Und, skip int) *CSR {
	n := len(a)
	indptr := make([]int32, n+1)
	total := 0
	for v, nb := range a {
		if v == skip {
			indptr[v+1] = int32(total)
			continue
		}
		for _, w := range nb {
			if w != skip {
				total++
			}
		}
		indptr[v+1] = int32(total)
	}
	nbrs := make([]int32, 0, total)
	for v, nb := range a {
		if v == skip {
			continue
		}
		for _, w := range nb {
			if w != skip {
				nbrs = append(nbrs, int32(w))
			}
		}
	}
	return &CSR{Indptr: indptr, Nbrs: nbrs}
}

// BFSRow fills row (length n) with distances from src over c, writing
// InfDist for unreachable vertices. queue must have capacity n; it is
// used as the BFS frontier and returned contents are unspecified. The
// whole row is rewritten, so no clearing between calls is needed.
func (c *CSR) BFSRow(src int32, row []int32, queue []int32) {
	for i := range row {
		row[i] = InfDist
	}
	row[src] = 0
	queue = queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := row[v] + 1
		for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
			if row[w] == InfDist {
				row[w] = dv
				queue = append(queue, w)
			}
		}
	}
}

// DistanceRowsInto fills dst (length n*n) with all-pairs distances over
// c: dst[v*n+w] is the distance from v to w, InfDist when unreachable.
//
// Sources are processed in batches of 64 consecutive vertices by
// fillRowsSubset, the word-parallel BFS: each vertex carries a bitmask
// of which sources in the batch have reached it, so one level of 64
// simultaneous BFS costs O(n + m) word operations instead of 64 separate
// traversals — a ~word-width win on the low-diameter graphs the game
// produces. Batches are distributed over the AllPairs worker pool, each
// worker owning private mask buffers.
func (c *CSR) DistanceRowsInto(dst []int32) {
	n := c.N()
	batches := (n + 63) / 64
	parallelRange(batches, 2, func() *maskScratch { return newMaskScratch(n) }, func(ms *maskScratch, batch int) {
		c.fillRowsSubset(batch, dst, ms)
	})
}

// maskScratch is the per-worker state of the word-parallel BFS: one
// 64-bit reach/frontier mask per vertex plus frontier vertex lists.
type maskScratch struct {
	reach []uint64 // sources that have reached v
	front []uint64 // sources whose frontier contains v (current level)
	acc   []uint64 // next-level accumulator
	list  []int32  // current frontier vertices
	next  []int32  // next frontier vertices
}

func newMaskScratch(n int) *maskScratch {
	return &maskScratch{
		reach: make([]uint64, n),
		front: make([]uint64, n),
		acc:   make([]uint64, n),
		list:  make([]int32, 0, n),
		next:  make([]int32, 0, n),
	}
}

// fillRowsSubset fills the rows of dst (the flat n×n distance matrix
// over c) whose sources are batch's 64 consecutive vertices (fewer in
// the last batch) by one word-parallel BFS pass, for whole fills only.
//
// NOTE: the frontier loop is a deliberate pair with aggBatch (ecc.go) —
// same seeding and reach/acc/front propagation, different
// per-newly-reached action. The hot inner loops cannot afford a
// per-edge closure, so a fix to the propagation must be applied to both.
func (c *CSR) fillRowsSubset(batch int, dst []int32, ms *maskScratch) {
	n := c.N()
	base := batch * 64
	width := min(n-base, 64)
	rows := dst[base*n : (base+width)*n]
	for i := range rows {
		rows[i] = InfDist
	}
	for i := range ms.reach {
		ms.reach[i] = 0
		ms.acc[i] = 0
	}
	ms.list = ms.list[:0]
	for i := 0; i < width; i++ {
		s := base + i
		rows[i*n+s] = 0
		ms.reach[s] |= 1 << i
		ms.front[s] = ms.reach[s]
		ms.list = append(ms.list, int32(s))
	}
	for d := int32(1); len(ms.list) > 0; d++ {
		// Push every frontier mask across its vertex's edges.
		ms.next = ms.next[:0]
		for _, v := range ms.list {
			m := ms.front[v]
			for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
				if ms.acc[w] == 0 {
					ms.next = append(ms.next, w)
				}
				ms.acc[w] |= m
			}
		}
		// Keep only the sources seeing each vertex for the first time and
		// record their distances.
		ms.list = ms.list[:0]
		for _, w := range ms.next {
			nb := ms.acc[w] &^ ms.reach[w]
			ms.acc[w] = 0
			if nb == 0 {
				continue
			}
			ms.reach[w] |= nb
			ms.front[w] = nb
			ms.list = append(ms.list, w)
			for rem := nb; rem != 0; rem &= rem - 1 {
				rows[bits.TrailingZeros64(rem)*n+int(w)] = d
			}
		}
	}
}

// DistanceRows allocates and fills the flat n×n distance matrix of c.
func (c *CSR) DistanceRows() []int32 {
	n := c.N()
	dst := make([]int32, n*n)
	c.DistanceRowsInto(dst)
	return dst
}

// ResetUnderlying repacks c as the CSR of the whole underlying graph
// U(d), reusing c's buffers: a long-lived holder (the cache pool's
// shared distance matrix) refreshes it in place whenever the graph
// moves instead of allocating a new view per mutation. A brace is one edge; neighbour
// lists are duplicate-free but not sorted (no consumer needs an order).
func (c *CSR) ResetUnderlying(d *Digraph) {
	c.Indptr, c.Nbrs = packUnderlying(d, c.Indptr, c.Nbrs)
}

// packUnderlying writes the CSR of U(d) into indptr and nbrs, growing
// them only when their capacity falls short.
func packUnderlying(d *Digraph, indptr, nbrs []int32) ([]int32, []int32) {
	n := d.N()
	indptr = slices.Grow(indptr[:0], n+1)[:n+1]
	clear(indptr)
	// once reports whether arc u->v carries its undirected edge: a brace
	// is counted from its lower endpoint only.
	once := func(u, v int) bool { return u < v || !d.HasArc(v, u) }
	for u, os := range d.out {
		for _, v := range os {
			if once(u, v) {
				indptr[u+1]++
				indptr[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		indptr[v+1] += indptr[v]
	}
	nbrs = slices.Grow(nbrs[:0], int(indptr[n]))[:indptr[n]]
	// indptr[v] doubles as v's write cursor, ending at v's list end;
	// shifting right by one restores the list starts.
	for u, os := range d.out {
		for _, v := range os {
			if once(u, v) {
				nbrs[indptr[u]] = int32(v)
				indptr[u]++
				nbrs[indptr[v]] = int32(u)
				indptr[v]++
			}
		}
	}
	copy(indptr[1:], indptr[:n])
	indptr[0] = 0
	return indptr, nbrs
}
