package graph

// Incremental repair of cached distance matrices. A dynamics round
// changes one player's out-arcs at a time, so the underlying graph seen
// by every cached dist matrix differs from the cached state by a handful
// of edges around the mover. Refilling the whole n×n matrix for that is
// the dominant cost of cached dynamics; this file repairs it instead.
//
// The repair is row-by-row. For a BFS row d(s, ·) and an edge delta
// (removed set R, added set A, both absent/present in the *new* graph):
//
//   - Removals can only matter to a vertex that lost a *parent*: a
//     removed edge {a,b} with d(s,b) = d(s,a)+1 deprives b of parent a
//     (edges with |d(s,a)-d(s,b)| != 1 lie on no shortest path from s).
//     If every such orphaned endpoint still has, in the new graph, some
//     neighbour w with d(s,w) one level up, every old distance is
//     preserved: by induction on levels, each vertex at level k that
//     lost a parent reaches s through its surviving level-(k-1)
//     neighbour, and no other vertex lost any incident edge (all
//     changed edges join the endpoints of R). If some orphan has no
//     surviving parent, distances may have increased and the row is
//     recomputed ("damaged").
//   - With R harmless, an added edge can only *decrease* distances, and
//     only if some {a,b} in A has min(d(s,a), d(s,b)) finite and
//     |d(s,a) - d(s,b)| >= 2 (take the improved vertex with the smallest
//     new distance: its last edge must be an added one whose endpoints'
//     old distances differ by >= 2). Such rows are patched in place by a
//     monotone improvement-only BFS seeded from the added edges.
//   - Rows matching neither test are exactly valid as they stand — the
//     common case when a move is far from the row's source, and, in the
//     low-diameter graphs the game produces, usually even when it is
//     near (alternative parents abound).
//
// When the delta exceeds RepairCap edges the per-row plan is abandoned
// and the call reports a whole-matrix rebuild, leaving the rows
// untouched: the caller refills the matrix by the batched word-parallel
// filler. There is no limit on the damaged rows: on the n=512 SUM and
// MAX rows of BenchmarkDynamicsRound, a limit of a quarter of the rows
// sent most early moves to a whole refill, and the median converge time
// was 25–50% longer than with no limit (three alternating runs each,
// 2 vCPUs).

// RepairCap is the largest edge delta RepairRows classifies for an
// n-vertex matrix: against a larger one the O(n·|delta|) classification
// cannot beat the batched refill it is trying to avoid, and most rows
// would classify as damaged anyway.
func RepairCap(n int) int { return n/8 + 1 }

// RepairStats reports what one RepairRows call did.
type RepairStats struct {
	RowsPatched  int // rows improved in place (additions only)
	RowsRefilled int // damaged rows recomputed by fresh BFS
	// FullRefill reports that the delta was too large (past RepairCap)
	// for per-row repair: RepairRows left the rows untouched for the
	// caller to rebuild whole.
	FullRefill bool
	// Changed lists the sources whose rows changed (damaged then
	// patched), or nil after a FullRefill (every row may have changed).
	// The slice aliases the scratch and is valid until the next call.
	Changed []int32
}

// DeltaScratch holds the reusable buffers of RepairRows. Not safe for
// concurrent use.
type DeltaScratch struct {
	queue   []int32
	damaged []int32
	patched []int32
	changed []int32
	buckets [][]int32 // improvement BFS bucket queue, indexed by distance
}

// NewDeltaScratch returns repair scratch for n-vertex matrices.
func NewDeltaScratch(n int) *DeltaScratch {
	return &DeltaScratch{
		queue:   make([]int32, 0, n),
		buckets: make([][]int32, n+1),
	}
}

// RepairRows updates rows (the flat n×n distance matrix of the graph
// *before* the edge delta) to the distances over c (the graph *after*
// it). removed and added list the undirected edges deleted from and
// inserted into the graph, as endpoint pairs; they must be disjoint and
// consistent with c. Self-classification makes the cost proportional to
// the damage: untouched rows cost one scan over the delta, patched rows
// one improvement BFS, damaged rows one fresh BFS. Past RepairCap
// edges it reports FullRefill and leaves rows untouched for the caller
// to rebuild whole.
func (c *CSR) RepairRows(rows []int32, removed, added [][2]int32, ds *DeltaScratch) RepairStats {
	n := c.N()
	st := RepairStats{}
	if n == 0 || len(removed)+len(added) == 0 {
		return st
	}
	if len(removed)+len(added) > RepairCap(n) {
		st.FullRefill = true
		return st
	}
	ds.damaged = ds.damaged[:0]
	ds.patched = ds.patched[:0]
	for s := 0; s < n; s++ {
		row := rows[s*n : (s+1)*n]
		damaged := false
		for _, e := range removed {
			da, db := row[e[0]], row[e[1]]
			if da >= InfDist {
				continue // both endpoints unreachable from s
			}
			var child int32
			switch {
			case db == da+1:
				child = e[1]
			case da == db+1:
				child = e[0]
			default:
				continue // not on any shortest path from s
			}
			// child lost parent; is another old-level parent still there?
			alive := false
			up := row[child] - 1
			for _, w := range c.Nbrs[c.Indptr[child]:c.Indptr[child+1]] {
				if row[w] == up {
					alive = true
					break
				}
			}
			if !alive {
				damaged = true
				break
			}
		}
		if damaged {
			ds.damaged = append(ds.damaged, int32(s))
			continue
		}
		for _, e := range added {
			da, db := row[e[0]], row[e[1]]
			if da > db {
				da, db = db, da
			}
			if da < InfDist && db-da >= 2 {
				ds.patched = append(ds.patched, int32(s))
				break
			}
		}
	}
	if len(ds.damaged) > 0 {
		// Word-parallel subset refill: 64 damaged rows per BFS pass,
		// batches distributed over the worker pool.
		batches := (len(ds.damaged) + 63) / 64
		parallelRange(batches, 2,
			func() *maskScratch { return newMaskScratch(n) },
			func(ms *maskScratch, b int) {
				lo := b * 64
				hi := min(lo+64, len(ds.damaged))
				dst := make([][]int32, hi-lo)
				for i, s := range ds.damaged[lo:hi] {
					dst[i] = rows[int(s)*n : (int(s)+1)*n]
				}
				c.fillRowsSubset(ds.damaged[lo:hi], dst, -1, ms)
			})
	}
	ds.changed = append(ds.changed[:0], ds.damaged...)
	for _, s := range ds.patched {
		if c.patchRow(rows[int(s)*n:(int(s)+1)*n], added, ds) {
			ds.changed = append(ds.changed, s)
			st.RowsPatched++
		}
	}
	st.RowsRefilled = len(ds.damaged)
	st.Changed = ds.changed
	return st
}

// patchRow applies the improvement-only repair to one row: distances can
// only have decreased, every decrease routes through an added edge, and
// processing tentative improvements in increasing distance order (a
// bucket queue; all arc weights are 1) settles each vertex at its exact
// new distance. It reports whether any cell actually changed, so
// shadow structures (the level cache) are only rebuilt for rows that
// moved.
func (c *CSR) patchRow(row []int32, added [][2]int32, ds *DeltaScratch) bool {
	changed := false
	maxd := int32(0)
	push := func(v, d int32) {
		changed = true
		row[v] = d
		ds.buckets[d] = append(ds.buckets[d], v)
		if d > maxd {
			maxd = d
		}
	}
	for _, e := range added {
		a, b := e[0], e[1]
		// A finite distance is < InfDist, so d+1 <= InfDist never beats
		// an unreachable InfDist entry spuriously.
		if row[a]+1 < row[b] {
			push(b, row[a]+1)
		} else if row[b]+1 < row[a] {
			push(a, row[b]+1)
		}
	}
	for d := int32(0); d <= maxd; d++ {
		bucket := ds.buckets[d]
		for i := 0; i < len(bucket); i++ {
			v := bucket[i]
			if row[v] != d {
				continue // superseded by a smaller tentative distance
			}
			dn := d + 1
			for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
				if dn < row[w] {
					push(w, dn)
				}
			}
			bucket = ds.buckets[d] // pushes at d+1 only; reload for safety
		}
		ds.buckets[d] = bucket[:0]
	}
	return changed
}

// DiffUnd compares two undirected adjacency views of the same vertex set
// and returns the edges present only in old (removed) and only in new
// (added), each reported once with both endpoints, excluding any edge
// incident to skip (pass a negative skip to keep every edge). Both views
// must have sorted neighbour lists, which every Und built by this
// package has.
func DiffUnd(oldA, newA Und, skip int) (removed, added [][2]int32) {
	for v := range oldA {
		if v == skip {
			continue
		}
		ov, nv := oldA[v], newA[v]
		i, j := 0, 0
		for i < len(ov) || j < len(nv) {
			switch {
			case j >= len(nv) || (i < len(ov) && ov[i] < nv[j]):
				if w := ov[i]; w > v && w != skip {
					removed = append(removed, [2]int32{int32(v), int32(w)})
				}
				i++
			case i >= len(ov) || nv[j] < ov[i]:
				if w := nv[j]; w > v && w != skip {
					added = append(added, [2]int32{int32(v), int32(w)})
				}
				j++
			default:
				i++
				j++
			}
		}
	}
	return removed, added
}
