package graph

import "math/bits"

// Eccentricity-only word-parallel BFS. The MAX cost, the social cost
// (diameter) and the SUM cost all consume per-source *aggregates* of the
// BFS — eccentricity, distance sum, reached count — never the per-pair
// distances themselves. This kernel runs the same 64-sources-per-pass
// bitmask BFS as DistanceRowsInto but accumulates those aggregates
// directly from the frontier masks, so it writes no n×n matrix at all:
// per batch it touches O(n) mask words plus three 64-entry accumulators,
// instead of streaming 4·n² bytes of distance cells — the memory-traffic
// cut that makes MAX-objective sweeps cache-resident at large n.

// AggregatesInto fills per-source ecc (eccentricity within the reached
// set), sum (total distance to reached vertices) and reached (count,
// including the source) for every vertex of c. Each slice must have
// length n.
func (c *CSR) AggregatesInto(ecc []int32, sum []int64, reached []int32) {
	n := c.N()
	batches := (n + 63) / 64
	parallelRange(batches, 2, func() *maskScratch { return newMaskScratch(n) }, func(ms *maskScratch, batch int) {
		c.aggBatch(batch, ms, ecc, sum, reached)
	})
}

// aggBatch runs the 64 simultaneous BFS of one source batch, folding
// each newly-reached vertex into its sources' aggregates. (Frontier-loop
// pair with fillRowsSubset in csr.go; propagation fixes apply to both.)
func (c *CSR) aggBatch(batch int, ms *maskScratch, ecc []int32, sum []int64, reached []int32) {
	n := c.N()
	base := batch * 64
	width := n - base
	if width > 64 {
		width = 64
	}
	var cnt [64]int32
	var sums [64]int64
	var eccs [64]int32
	for i := range ms.reach {
		ms.reach[i] = 0
		ms.acc[i] = 0
	}
	ms.list = ms.list[:0]
	for i := 0; i < width; i++ {
		s := base + i
		cnt[i] = 1 // the source reaches itself at distance 0
		ms.reach[s] |= 1 << i
		ms.front[s] = ms.reach[s]
		ms.list = append(ms.list, int32(s))
	}
	for d := int32(1); len(ms.list) > 0; d++ {
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
				i := bits.TrailingZeros64(rem)
				cnt[i]++
				sums[i] += int64(d)
				eccs[i] = d // levels are visited in increasing d
			}
		}
	}
	for i := 0; i < width; i++ {
		ecc[base+i] = eccs[i]
		sum[base+i] = sums[i]
		reached[base+i] = cnt[i]
	}
}

// AggregateBFS computes every vertex's BFS aggregates over the
// undirected adjacency a in one batched pass: eccentricities, distance
// sums and reached counts, without materialising any distance matrix.
func AggregateBFS(a Und) (ecc []int32, sums []int64, reached []int32) {
	n := len(a)
	ecc = make([]int32, n)
	sums = make([]int64, n)
	reached = make([]int32, n)
	if n == 0 {
		return
	}
	NewCSR(a).AggregatesInto(ecc, sums, reached)
	return
}
