// Package graph provides the directed-multigraph substrate used by the
// bounded budget network creation game: arc ownership, the undirected
// underlying view, BFS-based distance machinery, parallel all-pairs
// shortest paths, connectivity and cycle-structure utilities, and
// deterministic generators. For bulk distance work the flat CSR view
// (csr.go) replaces pointer-chasing adjacency lists with two int32
// arrays and fills whole distance matrices by word-parallel batched BFS
// — 64 sources per pass — on the shared worker pool.
//
// Vertices are integers 0..n-1. An arc u->v is "owned" by its tail u
// (player u paid for it). Distances in the game are always measured in
// the undirected underlying graph U(G); a pair of opposite arcs u->v and
// v->u is a "brace" and counts as a 2-cycle in U(G), though it does not
// change any distance.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph on a fixed vertex set {0,...,n-1}.
// Out-neighbour lists are kept sorted and duplicate-free: player i may own
// at most one arc to any given vertex, matching the strategy sets S_i of
// the game (S_i is a set, not a multiset).
type Digraph struct {
	n   int
	out [][]int

	// Generation stamps (stamp.go): gen counts mutations, nodeGen[v] is
	// the generation that last touched v, (src, srcGen) is the content
	// anchor, id the process-unique instance identity, j the optional
	// mutation journal.
	gen     int64
	nodeGen []int64
	id      uint64
	src     uint64
	srcGen  int64
	j       *journal
}

// NewDigraph returns an empty digraph on n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	id := digraphID.Add(1)
	return &Digraph{n: n, out: make([][]int, n), nodeGen: make([]int64, n), id: id, src: id}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// Out returns the sorted out-neighbour list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Digraph) Out(u int) []int { return g.out[u] }

// OutDegree returns the number of arcs owned by u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// ArcCount returns the total number of arcs.
func (g *Digraph) ArcCount() int {
	m := 0
	for _, os := range g.out {
		m += len(os)
	}
	return m
}

// HasArc reports whether the arc u->v is present.
func (g *Digraph) HasArc(u, v int) bool {
	os := g.out[u]
	i := sort.SearchInts(os, v)
	return i < len(os) && os[i] == v
}

// AddArc inserts the arc u->v. It panics on self-loops and out-of-range
// vertices, and is a no-op if the arc already exists (strategy sets are
// sets). It reports whether the arc was newly added.
func (g *Digraph) AddArc(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop %d->%d", u, v))
	}
	os := g.out[u]
	i := sort.SearchInts(os, v)
	if i < len(os) && os[i] == v {
		return false
	}
	os = append(os, 0)
	copy(os[i+1:], os[i:])
	os[i] = v
	g.out[u] = os
	g.bump()
	g.touch(u)
	g.touch(v)
	if g.j != nil {
		var e arcDelta
		if g.undToggle(u, v) {
			e.undAdd = [][2]int32{normEdge(u, v)}
		}
		g.record(e)
	}
	return true
}

// RemoveArc deletes the arc u->v, reporting whether it was present.
func (g *Digraph) RemoveArc(u, v int) bool {
	g.check(u)
	g.check(v)
	os := g.out[u]
	i := sort.SearchInts(os, v)
	if i >= len(os) || os[i] != v {
		return false
	}
	g.out[u] = append(os[:i], os[i+1:]...)
	g.bump()
	g.touch(u)
	g.touch(v)
	if g.j != nil {
		var e arcDelta
		if g.undToggle(u, v) {
			e.undRem = [][2]int32{normEdge(u, v)}
		}
		g.record(e)
	}
	return true
}

// SetOut replaces u's entire out-neighbour set with a sorted, deduplicated
// copy of s. It panics if s contains u or an out-of-range vertex. A
// rewrite that leaves the set unchanged is a no-op and does not advance
// the graph generation.
func (g *Digraph) SetOut(u int, s []int) {
	g.check(u)
	ns := make([]int, len(s))
	copy(ns, s)
	sort.Ints(ns)
	w := 0
	for i, v := range ns {
		g.check(v)
		if v == u {
			panic(fmt.Sprintf("graph: self-loop in strategy of %d", u))
		}
		if i > 0 && ns[i-1] == v {
			continue
		}
		ns[w] = v
		w++
	}
	ns = ns[:w]
	old := g.out[u]
	if intsEqual(old, ns) {
		return
	}
	g.out[u] = ns
	g.bump()
	g.touch(u)
	var e arcDelta
	// Symmetric difference of two sorted lists: stamp every changed
	// target and journal the net undirected toggles.
	i, j := 0, 0
	for i < len(old) || j < len(ns) {
		switch {
		case j >= len(ns) || (i < len(old) && old[i] < ns[j]):
			v := old[i]
			g.touch(v)
			if g.j != nil && g.undToggle(u, v) {
				e.undRem = append(e.undRem, normEdge(u, v))
			}
			i++
		case i >= len(old) || ns[j] < old[i]:
			v := ns[j]
			g.touch(v)
			if g.j != nil && g.undToggle(u, v) {
				e.undAdd = append(e.undAdd, normEdge(u, v))
			}
			j++
		default:
			i++
			j++
		}
	}
	if g.j != nil {
		g.record(e)
	}
}

// intsEqual reports whether two sorted int slices are identical.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// In returns the sorted list of vertices owning an arc into u.
// This is an O(n+m) scan; callers needing all in-lists should use InLists.
func (g *Digraph) In(u int) []int {
	var in []int
	for v := range g.out {
		if v != u && g.HasArc(v, u) {
			in = append(in, v)
		}
	}
	return in
}

// InLists returns, for every vertex, the sorted list of owners of arcs
// into it, computed in one pass.
func (g *Digraph) InLists() [][]int {
	in := make([][]int, g.n)
	for u, os := range g.out {
		for _, v := range os {
			in[v] = append(in[v], u)
		}
	}
	return in // already sorted: u increases in outer loop
}

// IsBrace reports whether {u,v} is a brace, i.e. both u->v and v->u exist.
func (g *Digraph) IsBrace(u, v int) bool {
	return g.HasArc(u, v) && g.HasArc(v, u)
}

// Braces returns all braces as ordered pairs (u,v) with u < v.
func (g *Digraph) Braces() [][2]int {
	var bs [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			if v > u && g.HasArc(v, u) {
				bs = append(bs, [2]int{u, v})
			}
		}
	}
	return bs
}

// Clone returns a deep copy of the graph. The clone keeps the source's
// generation stamps and content anchor (so caches keyed on the anchor
// still match until either copy mutates) but gets a fresh instance
// identity and no journal.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.n)
	for u, os := range g.out {
		c.out[u] = append([]int(nil), os...)
	}
	c.gen = g.gen
	copy(c.nodeGen, g.nodeGen)
	c.src = g.src
	c.srcGen = g.srcGen
	return c
}

// Equal reports whether g and h have identical vertex counts and arc sets.
func (g *Digraph) Equal(h *Digraph) bool {
	if g.n != h.n {
		return false
	}
	for u := range g.out {
		if len(g.out[u]) != len(h.out[u]) {
			return false
		}
		for i, v := range g.out[u] {
			if h.out[u][i] != v {
				return false
			}
		}
	}
	return true
}

// String renders the arc lists, one vertex per line, for debugging.
func (g *Digraph) String() string {
	s := fmt.Sprintf("Digraph(n=%d, m=%d)", g.n, g.ArcCount())
	for u, os := range g.out {
		if len(os) > 0 {
			s += fmt.Sprintf("\n  %d -> %v", u, os)
		}
	}
	return s
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
