package graph

// Derivation of a deviation matrix from a neighbouring one. The cache
// of player y holds dist_{G−y}; a heavy move stream (or a new cache)
// used to rebuild it by a whole-matrix fill. But the cache of a player
// x that was just synced holds dist_{G−x} for the same graph G, and the
// two matrices differ only in the rows whose shortest paths run through
// x or y — a small fraction on the low-diameter graphs the game
// produces. DeriveRows turns the one into the other row by row,
// repairing from nearby exact state instead of recomputing it (the
// incremental-SSSP lesson for long update streams):
//
//   - copy x's row d_{G−x}(s,·);
//   - re-insert x: d_G(s,x) = 1 + min over x's neighbours v of
//     d_{G−x}(s,v), since a shortest path to x enters it last. Paths
//     through x can only shorten distances, and only when two of x's
//     neighbours sit at least 3 levels apart (via x they are 2 hops
//     apart); only then does the improvement-only patchRow run, seeded
//     from x's edges. The row is now d_G(s,·);
//   - delete y with the lost-parent test of RepairRows: if every child
//     of y on the BFS DAG from s keeps another parent one level up, no
//     distance grew (induction on levels) and y's column simply
//     becomes InfDist; otherwise the row is damaged;
//   - refill only the damaged rows, by the word-parallel subset BFS
//     over G with y blocked.
//
// Row x itself is never derived: distances are symmetric, so it is the
// finished column x. Row y is the deleted vertex's trivial row. Past
// RepairRefillFraction damaged rows the derivation gives up and the
// caller fills the matrix whole. Every derived row is bit-identical to
// a fresh fill; the fuzz and property suites pin this.
//
// The weighted tier follows the same plan on offset-adjusted rows
// (weighted.go): each row is copied with x's offset swapped for y's (a
// constant per-row shift, ShiftRow's rule), x is re-inserted at
// min over arcs (x,v) of row[v] + w(x,v) with patchRowWeighted run only
// when some neighbour improves through x, y's children need a surviving
// tight arc, and damaged rows are refilled by Δ-stepping with y
// blocked.

// DeriveRows fills rows (the flat n×n matrix) with the distances of
// G−y, derived from donor, the exact distance matrix of G−x; c is the
// CSR of the whole graph G and x != y. ok is false when more than
// RepairRefillFraction of the rows are damaged — rows then hold no
// meaningful content and the caller must fill them whole. RowsRefilled
// counts the damaged rows refilled. ds must come from NewDeltaScratch;
// after its first derivation it makes the call allocation-free.
func (c *CSR) DeriveRows(rows, donor []int32, x, y int32, ds *DeltaScratch) (st RepairStats, ok bool) {
	n := c.N()
	if ds.ms == nil {
		ds.ms = newMaskScratch(n)
		ds.col = make([]int32, n)
	}
	xn := c.Nbrs[c.Indptr[x]:c.Indptr[x+1]]
	ds.xedges = ds.xedges[:0]
	for _, v := range xn {
		ds.xedges = append(ds.xedges, [2]int32{x, v})
	}
	ds.damaged = ds.damaged[:0]
	maxDamaged := RepairRefillFraction * float64(n)
	for s := int32(0); s < int32(n); s++ {
		if s == x || s == y {
			continue
		}
		row := rows[int(s)*n : (int(s)+1)*n]
		copy(row, donor[int(s)*n:(int(s)+1)*n])
		mn, mx := InfDist, int32(0)
		for _, v := range xn {
			mn = min(mn, row[v])
			mx = max(mx, row[v])
		}
		if mn < InfDist {
			if mx-mn >= 3 {
				c.patchRow(row, ds.xedges, ds) // row[x] is InfDist: patchRow seeds it
			} else {
				row[x] = mn + 1
			}
		}
		if c.orphansY(row, y) {
			ds.damaged = append(ds.damaged, s)
			if float64(len(ds.damaged)) > maxDamaged {
				return st, false
			}
			continue
		}
		row[y] = InfDist
		ds.col[s] = row[x]
	}
	rowY := rows[int(y)*n : (int(y)+1)*n]
	for i := range rowY {
		rowY[i] = InfDist
	}
	rowY[y] = 0
	for lo := 0; lo < len(ds.damaged); lo += 64 {
		c.fillRowsSubset(ds.damaged[lo:min(lo+64, len(ds.damaged))], rows, y, ds.ms)
	}
	for _, s := range ds.damaged {
		ds.col[s] = rows[int(s)*n+int(x)]
	}
	ds.col[x], ds.col[y] = 0, InfDist
	copy(rows[int(x)*n:(int(x)+1)*n], ds.col)
	st.RowsRefilled = len(ds.damaged)
	return st, true
}

// orphansY reports whether deleting y from the graph whose distances
// from one source are row would leave some child of y without another
// parent one level up — the lost-parent test of RepairRows for every
// edge of y at once.
func (c *CSR) orphansY(row []int32, y int32) bool {
	ry := row[y]
	if ry >= InfDist {
		return false
	}
	for _, v := range c.Nbrs[c.Indptr[y]:c.Indptr[y+1]] {
		if row[v] != ry+1 {
			continue
		}
		alive := false
		for _, w := range c.Nbrs[c.Indptr[v]:c.Indptr[v+1]] {
			if w != y && row[w] == ry {
				alive = true
				break
			}
		}
		if !alive {
			return true
		}
	}
	return false
}

// DeriveRowsWeighted is DeriveRows for offset-adjusted weighted rows: c
// is the weighted CSR of the whole graph, off the offsets of the
// derived matrix (G−y) and donorOff those of donor (G−x), both at the
// weights c was packed from.
func (c *WCSR) DeriveRowsWeighted(rows, donor, off, donorOff []int32, x, y int32, ds *WDeltaScratch) (st RepairStats, ok bool) {
	n := c.N()
	if ds.ws == nil {
		ds.ws = newWScratch(c.MaxW)
		ds.col = make([]int32, n)
	}
	xs, xe := c.Indptr[x], c.Indptr[x+1]
	ds.xedges = ds.xedges[:0]
	for k := xs; k < xe; k++ {
		ds.xedges = append(ds.xedges, WEdge{A: x, B: c.Nbrs[k], W: c.W[k]})
	}
	ds.damaged = ds.damaged[:0]
	maxDamaged := RepairRefillFraction * float64(n)
	for s := int32(0); s < int32(n); s++ {
		if s == x || s == y {
			continue
		}
		row := rows[int(s)*n : (int(s)+1)*n]
		copy(row, donor[int(s)*n:(int(s)+1)*n])
		ShiftRow(row, off[s]-donorOff[s])
		a := InfDist
		for k := xs; k < xe; k++ {
			if r := row[c.Nbrs[k]]; r < InfDist {
				a = min(a, r+c.W[k])
			}
		}
		if a < InfDist {
			row[x] = a
			for k := xs; k < xe; k++ {
				if a+c.W[k] < row[c.Nbrs[k]] {
					c.patchRowWeighted(row, ds.xedges, ds)
					break
				}
			}
		}
		if c.orphansY(row, y) {
			ds.damaged = append(ds.damaged, s)
			if float64(len(ds.damaged)) > maxDamaged {
				return st, false
			}
			continue
		}
		row[y] = InfDist
		ds.col[s] = row[x]
	}
	rowY := rows[int(y)*n : (int(y)+1)*n]
	for i := range rowY {
		rowY[i] = InfDist
	}
	rowY[y] = off[y]
	for _, s := range ds.damaged {
		c.steppingRow(s, rows[int(s)*n:(int(s)+1)*n], off[s], y, ds.ws)
		ds.col[s] = rows[int(s)*n+int(x)]
	}
	// Row x by symmetry: wdist(x,s) is column x of row s minus s's
	// offset, stored under x's.
	rowX := rows[int(x)*n : (int(x)+1)*n]
	for s, r := range ds.col {
		if r < InfDist {
			r += off[x] - off[s]
		}
		rowX[s] = r
	}
	rowX[x], rowX[y] = off[x], InfDist
	st.RowsRefilled = len(ds.damaged)
	return st, true
}

// orphansY is the weighted lost-parent test for deleting y: a child v
// of y (row[v] == row[y] + w(y,v)) needs another tight arc into it.
// Offsets cancel — both sides carry the row's shift — and finite
// entries stay below InfDist - MaxW, so sums never alias the sentinel.
func (c *WCSR) orphansY(row []int32, y int32) bool {
	ry := row[y]
	if ry >= InfDist {
		return false
	}
	for k := c.Indptr[y]; k < c.Indptr[y+1]; k++ {
		v := c.Nbrs[k]
		if row[v] != ry+c.W[k] {
			continue
		}
		alive := false
		for j := c.Indptr[v]; j < c.Indptr[v+1]; j++ {
			if w := c.Nbrs[j]; w != y && row[w]+c.W[j] == row[v] {
				alive = true
				break
			}
		}
		if !alive {
			return true
		}
	}
	return false
}
