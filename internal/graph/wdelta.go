package graph

// Incremental repair of weighted distance matrices — the Δ-stepping
// cache tier's analogue of delta.go, with the same row-by-row plan:
//
//   - A removed (or weight-increased) edge {a,b,w} lies on a shortest
//     path of row s only when one endpoint is the other's tight parent:
//     row[b] == row[a] + w (b is the child) or symmetrically. An orphaned
//     child is safe if some surviving arc still certifies its old
//     distance (row[x] + w(x,child) == row[child] over the new WCSR);
//     by induction in old-distance order every such certificate keeps
//     all old distances achievable, so rows whose orphans all have
//     certificates never increased. Rows with an uncertified orphan are
//     damaged and refilled by a fresh per-row SSSP.
//   - With increases ruled out, an added (or weight-decreased) edge
//     {a,b,w} can only decrease distances, and only when
//     min(row[a], row[b]) + w < max(row[a], row[b]). Such rows are
//     patched in place by an improvement-only Dijkstra seeded from the
//     added edges: every decreased vertex's new shortest path crosses a
//     seed edge (a path avoiding them is no shorter than before), so
//     relaxation from the seeds settles each moved vertex exactly.
//     Weighted distances exceed n, so the patch runs on the binary heap
//     rather than delta.go's n+1-bucket queue.
//
// The threshold mirrors delta.go: classification is abandoned past
// RepairCap delta edges, and the call reports FullRefill with the rows
// untouched for the caller to rebuild whole. The fuzz and property
// suites pin the repaired rows against a fresh fill, bit for bit.

// WDeltaScratch holds the reusable buffers of RepairRowsWeighted. Not
// safe for concurrent use.
type WDeltaScratch struct {
	damaged []int32
	patched []int32
	changed []int32
	heap    []int64
}

// NewWDeltaScratch returns weighted repair scratch for n-vertex
// matrices.
func NewWDeltaScratch(n int) *WDeltaScratch {
	return &WDeltaScratch{heap: make([]int64, 0, n)}
}

// RepairRowsWeighted updates rows (the flat n×n weighted distance
// matrix of the graph *before* the delta) to the distances over c (the
// weighted graph *after* it). removed and added list the deleted and
// inserted weighted edges; a weight change on a surviving edge is
// expressed as removed(old weight) + added(new weight). The repaired
// matrix is bit-identical to a fresh DistanceRowsInto fill; a
// FullRefill report leaves rows untouched for the caller to rebuild
// whole.
func (c *WCSR) RepairRowsWeighted(rows []int32, removed, added []WEdge, ds *WDeltaScratch) RepairStats {
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
			target := row[child]
			alive := false
			for k := c.Indptr[child]; k < c.Indptr[child+1]; k++ {
				if row[c.Nbrs[k]]+c.W[k] == target {
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
			da, db := row[e.A], row[e.B]
			if da > db {
				da, db = db, da
			}
			if da < InfDist && da+e.W < db {
				ds.patched = append(ds.patched, int32(s))
				break
			}
		}
	}
	if len(ds.damaged) > 0 {
		// Per-row Δ-stepping refill over the worker pool; no word-parallel
		// batching here — weighted frontiers carry no level structure to
		// share across sources.
		parallelRange(len(ds.damaged), 8,
			func() *wScratch { return newWScratch(c.MaxW) },
			func(ws *wScratch, i int) {
				s := ds.damaged[i]
				c.steppingRow(s, rows[int(s)*n:(int(s)+1)*n], -1, ws)
			})
	}
	ds.changed = append(ds.changed[:0], ds.damaged...)
	for _, s := range ds.patched {
		if c.patchRowWeighted(rows[int(s)*n:(int(s)+1)*n], added, ds) {
			ds.changed = append(ds.changed, s)
			st.RowsPatched++
		}
	}
	st.RowsRefilled = len(ds.damaged)
	st.Changed = ds.changed
	return st
}

// patchRowWeighted applies the improvement-only Dijkstra repair to one
// row, seeded from the added edges. It reports whether any cell
// actually changed.
func (c *WCSR) patchRowWeighted(row []int32, added []WEdge, ds *WDeltaScratch) bool {
	changed := false
	h := ds.heap[:0]
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
	for len(h) > 0 {
		var e int64
		e, h = heapPop(h)
		d := int32(e >> 32)
		v := int32(e & 0xffffffff)
		if row[v] != d {
			continue
		}
		for k := c.Indptr[v]; k < c.Indptr[v+1]; k++ {
			w := c.Nbrs[k]
			nd := d + c.W[k]
			if nd < row[w] {
				row[w] = nd
				h = heapPush(h, int64(nd)<<32|int64(w))
			}
		}
	}
	ds.heap = h
	return changed
}
