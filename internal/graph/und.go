package graph

import (
	"slices"
	"sort"
)

// Und is an undirected adjacency-list view. It is the structure on which
// all game distances are computed: Und[u] lists the distinct neighbours of
// u in the underlying graph U(G). Braces collapse to a single undirected
// edge for distance purposes (their multiplicity only matters for cycle
// counting, which is handled separately).
type Und [][]int

// Underlying builds the undirected adjacency view of g in O(n + m).
// Neighbour lists are sorted and duplicate-free.
func (g *Digraph) Underlying() Und {
	adj := make(Und, g.n)
	for u, os := range g.out {
		for _, v := range os {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	for u := range adj {
		slices.Sort(adj[u])
		adj[u] = slices.Compact(adj[u])
	}
	return adj
}

// N returns the number of vertices.
func (a Und) N() int { return len(a) }

// EdgeCount returns the number of undirected edges (braces count once).
func (a Und) EdgeCount() int {
	m := 0
	for _, nb := range a {
		m += len(nb)
	}
	return m / 2
}

// Degree returns the number of distinct neighbours of u.
func (a Und) Degree(u int) int { return len(a[u]) }

// MaxDegree returns the maximum degree over all vertices (0 for empty).
func (a Und) MaxDegree() int {
	d := 0
	for _, nb := range a {
		if len(nb) > d {
			d = len(nb)
		}
	}
	return d
}

// MinDegree returns the minimum degree over all vertices (0 for empty).
func (a Und) MinDegree() int {
	if len(a) == 0 {
		return 0
	}
	d := len(a[0])
	for _, nb := range a[1:] {
		if len(nb) < d {
			d = len(nb)
		}
	}
	return d
}

// HasEdge reports whether u and v are adjacent.
func (a Und) HasEdge(u, v int) bool {
	nb := a[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Clone deep-copies the adjacency view.
func (a Und) Clone() Und {
	c := make(Und, len(a))
	for u, nb := range a {
		c[u] = append([]int(nil), nb...)
	}
	return c
}

// UnderlyingWithout builds the undirected adjacency of g with all arcs
// owned by vertex u removed (arcs into u owned by others are kept). This
// is the fixed part of the graph while player u deviates: whatever
// strategy u picks, every edge {v,w} with v,w != u, and every edge {v,u}
// owned by v, stays. The result is the base for DeviationAdjacency.
func (g *Digraph) UnderlyingWithout(u int) Und {
	adj := make(Und, g.n)
	for w, os := range g.out {
		if w == u {
			continue
		}
		for _, v := range os {
			adj[w] = append(adj[w], v)
			adj[v] = append(adj[v], w)
		}
	}
	for w := range adj {
		slices.Sort(adj[w])
		adj[w] = slices.Compact(adj[w])
	}
	return adj
}
