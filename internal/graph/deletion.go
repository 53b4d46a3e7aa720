package graph

// Rows of a vertex deletion. The cache pool (internal/core) keeps one
// exact distance matrix D of the whole graph G, and each player y only
// the rows of dist_{G−y} that differ from D outside column y. Deleting
// y lengthens distances from a source s exactly when some child of y on
// s's shortest-path DAG loses its only parent: if every child keeps
// another parent one level up, induction on levels keeps every distance
// and only column y changes (to InfDist); if some child has none, its
// own distance grows. DeletionDamage runs that lost-parent test (the
// one RepairRows runs per removed edge, for every edge of y at once)
// over D's rows, and RowsWithout repairs a copy of each damaged row in
// place over G with y blocked, so no second CSR of G−y is ever packed.
// This is decremental SSSP under one vertex deletion, repaired from
// nearby exact state.
//
// Both tiers run the same plan: the copy of D's row is seeded with y's
// children (row[v] == row[y] + 1, or row[y] + w(y,v) on raw weighted
// rows) and handed to the tier's in-place repair kernel with y blocked
// (repairRow, repairRowWeighted), which touches only the vertices whose
// distance grows and the neighbours that decide it.

// DeletionDamage appends to dst, in increasing order, every source
// s != y whose row of rows (the flat n×n distance matrix over c) the
// deletion of y damages, and returns the extended slice. Every other
// row equals dist_{c−y} outside column y.
func (c *CSR) DeletionDamage(rows []int32, y int32, dst []int32) []int32 {
	n := c.N()
	for s := 0; s < n; s++ {
		if int32(s) != y && c.orphansY(rows[s*n:(s+1)*n], y) {
			dst = append(dst, int32(s))
		}
	}
	return dst
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

// RowsWithout fills dst[i] (length n) with the distances from srcs[i]
// over c minus vertex block, repairing in place a copy of row srcs[i]
// of rows, the flat n×n distance matrix over c. block must be a vertex
// of c, and no source may equal it.
func (c *CSR) RowsWithout(rows, srcs []int32, dst [][]int32, block int32, ds *DeltaScratch) {
	n := c.N()
	rs := &ds.rs
	rs.fit(n)
	for i, s := range srcs {
		row := dst[i]
		copy(row, rows[int(s)*n:(int(s)+1)*n])
		seeds := rs.seeds[:0]
		if rb := row[block]; rb < InfDist {
			for _, v := range c.Nbrs[c.Indptr[block]:c.Indptr[block+1]] {
				if row[v] == rb+1 {
					seeds = append(seeds, v)
				}
			}
		}
		rs.seeds = seeds
		c.repairRow(row, seeds, nil, block, rs)
	}
}

// ComponentsWithout labels the connected components of c minus vertex
// block into label (length n; label[block] = -1, components numbered in
// order of their smallest vertex, as ComponentsExcluding numbers them)
// and returns their count. queue is BFS scratch; the possibly regrown
// buffer is returned for reuse.
func (c *CSR) ComponentsWithout(block int, label []int, queue []int32) (int, []int32) {
	return componentsWithout(c.Indptr, c.Nbrs, block, label, queue)
}

// DeletionDamage is CSR.DeletionDamage over raw weighted rows.
func (c *WCSR) DeletionDamage(rows []int32, y int32, dst []int32) []int32 {
	n := c.N()
	for s := 0; s < n; s++ {
		if int32(s) != y && c.orphansY(rows[s*n:(s+1)*n], y) {
			dst = append(dst, int32(s))
		}
	}
	return dst
}

// orphansY is the weighted lost-parent test for deleting y: a child v
// of y (row[v] == row[y] + w(y,v)) needs another tight arc into it.
// Finite entries stay below InfDist - MaxW, so sums never alias the
// sentinel.
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

// RowsWithout is CSR.RowsWithout over raw weighted rows: dst[i] gets
// the raw weighted distances from srcs[i] over c minus vertex block.
func (c *WCSR) RowsWithout(rows, srcs []int32, dst [][]int32, block int32, ds *DeltaScratch) {
	n := c.N()
	rs := &ds.rs
	rs.fit(n)
	for i, s := range srcs {
		row := dst[i]
		copy(row, rows[int(s)*n:(int(s)+1)*n])
		seeds := rs.seeds[:0]
		if rb := row[block]; rb < InfDist {
			for k := c.Indptr[block]; k < c.Indptr[block+1]; k++ {
				if v := c.Nbrs[k]; row[v] == rb+c.W[k] {
					seeds = append(seeds, v)
				}
			}
		}
		rs.seeds = seeds
		c.repairRowWeighted(row, seeds, nil, block, rs)
	}
}

// ComponentsWithout is CSR.ComponentsWithout over the weighted CSR.
func (c *WCSR) ComponentsWithout(block int, label []int, queue []int32) (int, []int32) {
	return componentsWithout(c.Indptr, c.Nbrs, block, label, queue)
}

func componentsWithout(indptr, nbrs []int32, block int, label []int, queue []int32) (int, []int32) {
	for i := range label {
		label[i] = -1
	}
	count := 0
	for s := range label {
		if s == block || label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			w := queue[head]
			for _, v := range nbrs[indptr[w]:indptr[w+1]] {
				if int(v) != block && label[v] < 0 {
					label[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return count, queue
}
