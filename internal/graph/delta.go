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
//     "damaged".
//   - With R harmless, an added edge can only *decrease* distances, and
//     only if some {a,b} in A has min(d(s,a), d(s,b)) finite and
//     |d(s,a) - d(s,b)| >= 2 (take the improved vertex with the smallest
//     new distance: its last edge must be an added one whose endpoints'
//     old distances differ by >= 2). Such rows are "improvable".
//   - Rows matching neither test are exactly valid as they stand — the
//     common case when a move is far from the row's source, and, in the
//     low-diameter graphs the game produces, usually even when it is
//     near (alternative parents abound).
//
// Damaged and improvable rows are repaired in place by repairRow, the
// Ramalingam–Reps step of dynamic SSSP: only the vertices whose
// distance changes are touched. In the n=512 SUM and MAX converge runs
// of BenchmarkDynamicsRound a move damages 260–290 rows, each with 2.9–
// 3.3 such vertices on average, where a refill rewrites all 512.
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
	RowsRefilled int // damaged rows repaired in place
	// FullRefill reports that the delta was too large (past RepairCap)
	// for per-row repair: RepairRows left the rows untouched for the
	// caller to rebuild whole.
	FullRefill bool
	// Changed lists, in increasing order, the sources whose rows changed
	// (damaged or patched), or nil after a FullRefill (every row may have
	// changed). The slice aliases the scratch and is valid until the
	// next call.
	Changed []int32
}

// Marks of the in-place row repair, per vertex; zero between repairs.
const (
	markQueued   uint8 = 1 // a candidate of the affected-set search
	markAffected uint8 = 2 // no unaffected parent: the distance is recomputed
)

// rowScratch is the reusable state of the in-place row repair
// (repairRow, repairRowWeighted), kept across rows and calls so that a
// repair allocates nothing.
type rowScratch struct {
	mark    []uint8   // markQueued | markAffected per vertex
	touched []int32   // the vertices with a mark, for clearing
	aff     []int32   // the affected set, in the order found
	seeds   []int32   // the seeds of the row being classified
	buckets [][]int32 // BFS rows: bucket queue indexed by distance
	heap    []int64   // weighted rows: binary heap of dist<<32|vertex
}

// fit sizes rs for n-vertex rows.
func (rs *rowScratch) fit(n int) {
	if len(rs.mark) != n {
		rs.mark = make([]uint8, n)
		rs.buckets = make([][]int32, n+1)
	}
}

// clearMarks resets every mark the last repair set.
func (rs *rowScratch) clearMarks() {
	for _, v := range rs.touched {
		rs.mark[v] = 0
	}
	rs.touched = rs.touched[:0]
}

// DeltaScratch holds the reusable buffers of RepairRows,
// RepairRowsWeighted and both tiers' RowsWithout, which leaves the last
// repair's Changed list intact. Not safe for concurrent use; the zero
// value is ready.
type DeltaScratch struct {
	rs      rowScratch
	changed []int32
}

// RepairRows updates rows (the flat n×n distance matrix of the graph
// *before* the edge delta) to the distances over c (the graph *after*
// it). removed and added list the undirected edges deleted from and
// inserted into the graph, as endpoint pairs; they must be disjoint and
// consistent with c. Self-classification makes the cost proportional to
// the damage: untouched rows cost one scan over the delta, damaged and
// improvable rows one in-place repair of the vertices that move. Past
// RepairCap edges it reports FullRefill and leaves rows untouched for
// the caller to rebuild whole.
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
	rs := &ds.rs
	rs.fit(n)
	ds.changed = ds.changed[:0]
	for s := 0; s < n; s++ {
		row := rows[s*n : (s+1)*n]
		seeds := rs.seeds[:0]
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
			seeds = append(seeds, child)
			if damaged {
				continue
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
			damaged = !alive
		}
		rs.seeds = seeds
		if damaged {
			c.repairRow(row, seeds, added, -1, rs)
			ds.changed = append(ds.changed, int32(s))
			st.RowsRefilled++
			continue
		}
		for _, e := range added {
			da, db := row[e[0]], row[e[1]]
			if da > db {
				da, db = db, da
			}
			if da < InfDist && db-da >= 2 {
				if c.repairRow(row, nil, added, -1, rs) {
					ds.changed = append(ds.changed, int32(s))
					st.RowsPatched++
				}
				break
			}
		}
	}
	st.Changed = ds.changed
	return st
}

// repairRow updates row, the exact BFS distances from one source over
// the graph before a change, to the distances over c after it — the
// Ramalingam–Reps step. seeds are the children of the removed edges
// (the vertices that lost a parent one level up) and added the inserted
// edges. A non-negative block is deleted with all its edges: it must be
// in no added edge, it is never a parent, never relaxed, and it ends at
// InfDist — a row of c minus block, from that row of c and block's
// children as seeds. Three phases:
//
//  1. The affected set: a seed, or a child of an affected vertex, is
//     affected when no unaffected neighbour over c sits one old level
//     up. Candidates are decided in increasing old distance, so all of a
//     vertex's parents are decided before it. Every unaffected vertex
//     keeps a path of its old length through unaffected parents, so its
//     old distance bounds its new one from above. This phase only reads
//     the row.
//  2. Each affected vertex takes one more than the least old distance of
//     its unaffected neighbours (InfDist if none), and each added edge
//     whose far end improves on the near end plus one seeds that end.
//  3. A bucket queue settles the seeded vertices in distance order,
//     relaxing only where a distance drops.
//
// Every value is the length of a path over c throughout, and a shortest
// path's last edge is relaxed by phase 3 or was accounted for by phase
// 2, so the result is exact. It reports whether any cell other than
// block's was written.
func (c *CSR) repairRow(row []int32, seeds []int32, added [][2]int32, block int32, rs *rowScratch) bool {
	b := rs.buckets
	lo, hi := int32(len(b)), int32(-1)
	push := func(v, d int32) {
		b[d] = append(b[d], v)
		lo, hi = min(lo, d), max(hi, d)
	}
	if block >= 0 {
		rs.mark[block] = markAffected
		rs.touched = append(rs.touched, block)
	}
	for _, v := range seeds {
		if rs.mark[v] == 0 {
			rs.mark[v] = markQueued
			rs.touched = append(rs.touched, v)
			push(v, row[v])
		}
	}
	aff := rs.aff[:0]
	for d := lo; d <= hi; d++ {
		// Candidates only queue children at d+1, so b[d] is stable.
		for _, v := range b[d] {
			parented := false
			for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
				if row[w] == d-1 && rs.mark[w]&markAffected == 0 {
					parented = true
					break
				}
			}
			if parented {
				continue
			}
			rs.mark[v] |= markAffected
			aff = append(aff, v)
			for _, x := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
				if row[x] == d+1 && rs.mark[x] == 0 {
					rs.mark[x] = markQueued
					rs.touched = append(rs.touched, x)
					push(x, d+1)
				}
			}
		}
		b[d] = b[d][:0]
	}
	lo, hi = int32(len(b)), -1
	for _, v := range aff {
		best := InfDist
		for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
			if rs.mark[w]&markAffected == 0 {
				best = min(best, row[w]+1)
			}
		}
		row[v] = best
		if best < InfDist {
			push(v, best)
		}
	}
	rs.aff = aff
	rs.clearMarks()
	if block >= 0 {
		row[block] = InfDist
	}
	changed := len(aff) > 0
	for _, e := range added {
		a, w := e[0], e[1]
		// A finite distance is < InfDist, so d+1 <= InfDist never beats
		// an unreachable InfDist entry spuriously.
		if row[a]+1 < row[w] {
			row[w] = row[a] + 1
			push(w, row[w])
			changed = true
		} else if row[w]+1 < row[a] {
			row[a] = row[w] + 1
			push(a, row[a])
			changed = true
		}
	}
	for d := lo; d <= hi; d++ {
		// Relaxations queue at d+1 only, so b[d] is stable.
		for _, v := range b[d] {
			if row[v] != d {
				continue // superseded by a smaller tentative distance
			}
			for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
				if d+1 < row[w] && w != block {
					row[w] = d + 1
					push(w, d+1)
				}
			}
		}
		b[d] = b[d][:0]
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
