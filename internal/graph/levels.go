package graph

import "math/bits"

// Bitset level sets: the eccentricity-only representation of BFS
// distances. For a source v, ball k is the bitset of vertices within
// distance k of v; the cumulative balls B_v[0] ⊆ B_v[1] ⊆ ... saturate
// at v's eccentricity. The MAX-objective deviation kernel only ever asks
// "what is the largest min-distance from an anchor set to any reachable
// vertex" — which is the smallest k at which the union of the anchors'
// balls covers the union of their saturated balls — so it can run
// entirely on these bitsets: evaluating one candidate anchor touches
// O(log(diam) · n/64) words instead of scanning an n-entry int32 row,
// roughly a 32× cut in memory traffic on low-diameter graphs.

// LevelCache stores cumulative reachability balls for every source of a
// distance matrix. Rows are set from int32 distance rows (InfDist =
// unreachable), so the cache is exactly as fresh as the matrix it
// shadows; after an incremental repair only the changed rows need
// re-setting. Safe for concurrent readers once built.
type LevelCache struct {
	n     int
	words int
	depth []int32    // per source: its eccentricity within its component
	rows  [][]uint64 // per source: (depth+1)×words cumulative balls
}

// NewLevelCache returns an empty cache for n-vertex graphs holding
// sources indexed 0..sources-1 (a cache of every source of a matrix has
// sources = n); every source must be SetRow before it is queried.
func NewLevelCache(n, sources int) *LevelCache {
	return &LevelCache{
		n:     n,
		words: (n + 63) / 64,
		depth: make([]int32, sources),
		rows:  make([][]uint64, sources),
	}
}

// Bytes returns the capacity, in bytes, of every buffer the cache holds.
func (lc *LevelCache) Bytes() int64 {
	b := 4*int64(cap(lc.depth)) + 24*int64(cap(lc.rows))
	for _, r := range lc.rows {
		b += 8 * int64(cap(r))
	}
	return b
}

// Words returns the per-level bitset width in 64-bit words.
func (lc *LevelCache) Words() int { return lc.words }

// SetRow (re)builds source src's level sets from its distance row
// (length n, InfDist marking unreachable vertices).
func (lc *LevelCache) SetRow(src int, row []int32) {
	depth := int32(0)
	for _, d := range row {
		if d < InfDist && d > depth {
			depth = d
		}
	}
	need := (int(depth) + 1) * lc.words
	buf := lc.rows[src]
	if cap(buf) < need {
		buf = make([]uint64, need)
	} else {
		buf = buf[:need]
		for i := range buf {
			buf[i] = 0
		}
	}
	for v, d := range row {
		if d < InfDist {
			buf[int(d)*lc.words+v>>6] |= 1 << (uint(v) & 63)
		}
	}
	for k := 1; k <= int(depth); k++ {
		prev := buf[(k-1)*lc.words : k*lc.words]
		cur := buf[k*lc.words : (k+1)*lc.words]
		for j, p := range prev {
			cur[j] |= p
		}
	}
	lc.rows[src] = buf
	lc.depth[src] = depth
}

// ball returns source src's cumulative ball at radius k (saturating at
// the source's depth).
func (lc *LevelCache) ball(src int, k int32) []uint64 {
	if d := lc.depth[src]; k > d {
		k = d
	}
	return lc.rows[src][int(k)*lc.words : (int(k)+1)*lc.words]
}

// LevelUnion accumulates the union of level caches of a growing anchor
// set — the incremental state of the MAX-objective responders, playing
// the role the running min-vector plays for SUM. The depth is kept
// trimmed to the smallest k whose ball equals the saturated reach set,
// so the union's eccentricity is simply its depth.
type LevelUnion struct {
	words  int
	depth  int32
	levels []uint64 // (depth+1)×words cumulative balls
	count  int      // population of the saturated ball
}

// NewLevelUnion returns the empty union for n-vertex graphs.
func NewLevelUnion(n int) *LevelUnion {
	words := (n + 63) / 64
	return &LevelUnion{words: words, levels: make([]uint64, words)}
}

// Seed adds vertex v to every ball of an empty union (covered at radius
// 0): the deviating player's own vertex, which a union of anchor balls
// over shared rows must count without letting those rows place it.
func (lu *LevelUnion) Seed(v int) {
	lu.levels[v>>6] |= 1 << (uint(v) & 63)
	lu.count = 1
}

// Bytes returns the capacity, in bytes, of the union's level buffer.
func (lu *LevelUnion) Bytes() int64 { return 8 * int64(cap(lu.levels)) }

// CopyFrom makes lu an independent copy of o.
func (lu *LevelUnion) CopyFrom(o *LevelUnion) {
	lu.words = o.words
	lu.depth = o.depth
	lu.count = o.count
	lu.levels = append(lu.levels[:0], o.levels...)
}

// sat returns the saturated (deepest) ball of the union.
func (lu *LevelUnion) sat() []uint64 {
	return lu.levels[int(lu.depth)*lu.words : (int(lu.depth)+1)*lu.words]
}

// Merge folds source src of lc into the union.
func (lu *LevelUnion) Merge(lc *LevelCache, src int) {
	nd := lu.depth
	if sd := lc.depth[src]; sd > nd {
		nd = sd
	}
	// Extend with copies of the current saturated ball up to the new depth.
	for k := lu.depth + 1; k <= nd; k++ {
		lu.levels = append(lu.levels, lu.sat()...)
	}
	lu.depth = nd
	for k := int32(0); k <= nd; k++ {
		b := lc.ball(src, k)
		dst := lu.levels[int(k)*lu.words : (int(k)+1)*lu.words]
		for j, w := range b {
			dst[j] |= w
		}
	}
	// Trim: drop top levels equal to the one below, so depth is again the
	// smallest covering radius.
	for lu.depth > 0 {
		top := lu.sat()
		below := lu.levels[(int(lu.depth)-1)*lu.words : int(lu.depth)*lu.words]
		equal := true
		for j := range top {
			if top[j] != below[j] {
				equal = false
				break
			}
		}
		if !equal {
			break
		}
		lu.depth--
		lu.levels = lu.levels[:(int(lu.depth)+1)*lu.words]
	}
	lu.count = 0
	for _, w := range lu.sat() {
		lu.count += bits.OnesCount64(w)
	}
}

// Aggregate returns the union's covering radius (its eccentricity: the
// largest min-distance from the anchor set to any covered vertex) and
// the number of covered vertices.
func (lu *LevelUnion) Aggregate() (ecc int32, covered int) {
	return lu.depth, lu.count
}

// AggregateWith returns Aggregate as it would be after merging source
// src, without mutating the union. The covering radius is found by
// binary search over k (coverage at radius k is monotone), so one
// candidate evaluation costs O(log(diam)) ball comparisons.
func (lu *LevelUnion) AggregateWith(lc *LevelCache, src int) (ecc int32, covered int) {
	w := lu.words
	usat := lu.sat()
	bsat := lc.ball(src, lc.depth[src])
	for j := 0; j < w; j++ {
		covered += bits.OnesCount64(usat[j] | bsat[j])
	}
	if covered == 0 {
		return 0, 0
	}
	lo, hi := int32(0), lu.depth
	if sd := lc.depth[src]; sd > hi {
		hi = sd
	}
	for lo < hi {
		mid := (lo + hi) / 2
		uk := lu.levels[int(min(mid, lu.depth))*w:]
		bk := lc.ball(src, mid)
		covers := true
		for j := 0; j < w; j++ {
			if uk[j]|bk[j] != usat[j]|bsat[j] {
				covers = false
				break
			}
		}
		if covers {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, covered
}
