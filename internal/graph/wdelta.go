package graph

// Incremental repair of weighted distance matrices — the weighted cache
// tier's analogue of delta.go, with the same row-by-row plan:
//
//   - A removed (or weight-increased) edge {a,b,w} lies on a shortest
//     path of row s only when one endpoint is the other's tight parent:
//     row[b] == row[a] + w (b is the child) or symmetrically. An orphaned
//     child is safe if some surviving arc still certifies its old
//     distance (row[x] + w(x,child) == row[child] over the new WCSR);
//     by induction in old-distance order every such certificate keeps
//     all old distances achievable, so rows whose orphans all have
//     certificates never increased. Rows with an uncertified orphan are
//     damaged.
//   - With increases ruled out, an added (or weight-decreased) edge
//     {a,b,w} can only decrease distances, and only when
//     min(row[a], row[b]) + w < max(row[a], row[b]). Such rows are
//     improvable: every decreased vertex's new shortest path crosses an
//     added edge (a path avoiding them is no shorter than before).
//
// Both are repaired in place by repairRowWeighted, delta.go's
// Ramalingam–Reps step over tight arcs instead of levels. Weighted
// distances exceed n, so it orders its queues on the binary heap
// rather than delta.go's n+1-bucket queue. The same kernel with a
// blocked vertex repairs the rows of a vertex deletion (deletion.go),
// and its last phase, settle, is the one Dijkstra loop of the tier:
// the whole fill (WCSR.DistanceRowsInto) runs it from each source.
//
// The threshold mirrors delta.go: classification is abandoned past
// RepairCap delta edges, and the call reports FullRefill with the rows
// untouched for the caller to rebuild whole. The fuzz and property
// suites pin the repaired rows against a test-only array-scan
// Dijkstra, bit for bit.

// RepairRowsWeighted updates rows (the flat n×n weighted distance
// matrix of the graph *before* the delta) to the distances over c (the
// weighted graph *after* it). removed and added list the deleted and
// inserted weighted edges; a weight change on a surviving edge is
// expressed as removed(old weight) + added(new weight). The repaired
// matrix is bit-identical to a fresh DistanceRowsInto fill; a
// FullRefill report leaves rows untouched for the caller to rebuild
// whole.
func (c *WCSR) RepairRowsWeighted(rows []int32, removed, added []WEdge, ds *DeltaScratch) RepairStats {
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
			da, db := row[e.A], row[e.B]
			if da >= InfDist && db >= InfDist {
				continue
			}
			// Finite adjusted entries stay below InfDist - MaxW
			// (FitsWeightedCache), so a finite + weight never aliases the
			// sentinel and the parent test cannot match across it.
			var child int32
			switch {
			case db == da+e.W:
				child = e.B
			case da == db+e.W:
				child = e.A
			default:
				continue // not tight on any shortest path from s
			}
			seeds = append(seeds, child)
			if damaged {
				continue
			}
			target := row[child]
			alive := false
			for k := c.Indptr[child]; k < c.Indptr[child+1]; k++ {
				if row[c.Nbrs[k]]+c.W[k] == target {
					alive = true
					break
				}
			}
			damaged = !alive
		}
		rs.seeds = seeds
		if damaged {
			c.repairRowWeighted(row, seeds, added, -1, rs)
			ds.changed = append(ds.changed, int32(s))
			st.RowsRefilled++
			continue
		}
		for _, e := range added {
			da, db := row[e.A], row[e.B]
			if da > db {
				da, db = db, da
			}
			if da < InfDist && da+e.W < db {
				if c.repairRowWeighted(row, nil, added, -1, rs) {
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

// repairRowWeighted is repairRow over raw weighted rows: a parent of v
// is a neighbour x with row[x] + w(x,v) == row[v], and both queues are
// the binary heap. seeds are the children of the removed edges and
// added the inserted ones. A non-negative block is deleted with all its
// edges: it must be in no added edge, it is never a parent, never
// relaxed, and it ends at InfDist — a row of c minus block, from that
// row of c and block's children as seeds. It reports whether any cell
// other than block's was written.
func (c *WCSR) repairRowWeighted(row []int32, seeds []int32, added []WEdge, block int32, rs *rowScratch) bool {
	h := rs.heap[:0]
	if block >= 0 {
		rs.mark[block] = markAffected
		rs.touched = append(rs.touched, block)
	}
	for _, v := range seeds {
		if rs.mark[v] == 0 {
			rs.mark[v] = markQueued
			rs.touched = append(rs.touched, v)
			h = heapPush(h, int64(row[v])<<32|int64(v))
		}
	}
	// Phase 1: candidates pop in increasing old distance, and every
	// parent is strictly closer, so parents are decided first.
	aff := rs.aff[:0]
	for len(h) > 0 {
		var e int64
		e, h = heapPop(h)
		v := int32(e & 0xffffffff)
		dv := row[v]
		parented := false
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			if w := c.Nbrs[k]; row[w]+c.W[k] == dv && rs.mark[w]&markAffected == 0 {
				parented = true
				break
			}
		}
		if parented {
			continue
		}
		rs.mark[v] |= markAffected
		aff = append(aff, v)
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			if x := c.Nbrs[k]; row[x] == dv+c.W[k] && rs.mark[x] == 0 {
				rs.mark[x] = markQueued
				rs.touched = append(rs.touched, x)
				h = heapPush(h, int64(row[x])<<32|int64(x))
			}
		}
	}
	// Phase 2.
	for _, v := range aff {
		best := InfDist
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			if w := c.Nbrs[k]; rs.mark[w]&markAffected == 0 {
				best = min(best, row[w]+c.W[k])
			}
		}
		row[v] = best
		if best < InfDist {
			h = heapPush(h, int64(best)<<32|int64(v))
		}
	}
	rs.aff = aff
	rs.clearMarks()
	if block >= 0 {
		row[block] = InfDist
	}
	changed := len(aff) > 0
	for _, e := range added {
		da, db := row[e.A], row[e.B]
		// InfDist + weight stays above any finite entry (and above
		// InfDist itself), so unreachable endpoints never seed spuriously.
		if da+e.W < db {
			row[e.B] = da + e.W
			h = heapPush(h, int64(da+e.W)<<32|int64(e.B))
			changed = true
		} else if db+e.W < da {
			row[e.A] = db + e.W
			h = heapPush(h, int64(db+e.W)<<32|int64(e.A))
			changed = true
		}
	}
	// Phase 3.
	rs.heap = c.settle(row, h, block)
	return changed
}

// settle is Dijkstra's loop over row: h holds the packed dist<<32|vertex
// entries of the tentative distances already written into row, and
// settle pops them in increasing distance, relaxing every arc except
// into a non-negative block, until the row is exact. Stale entries are
// skipped by the lazy check against the row. It serves every weighted
// row: the whole fill (one source queued at 0), phase 3 of the in-place
// repair and, through it, the rows of a vertex deletion. It returns the
// emptied heap for reuse.
func (c *WCSR) settle(row []int32, h []int64, block int32) []int64 {
	for len(h) > 0 {
		var e int64
		e, h = heapPop(h)
		d := int32(e >> 32)
		v := int32(e & 0xffffffff)
		if row[v] != d {
			continue // superseded by a smaller tentative distance
		}
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			w := c.Nbrs[k]
			if nd := d + c.W[k]; nd < row[w] && w != block {
				row[w] = nd
				h = heapPush(h, int64(nd)<<32|int64(w))
			}
		}
	}
	return h
}
