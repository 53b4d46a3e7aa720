package construct

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Shift graph of Lemma 5.2 / Theorem 5.3: vertices are the strings
// {1,...,t}^k, and (x_1,...,x_k) ~ (y_1,...,y_k) are adjacent when
// x_i = y_{i+1} for all 1 <= i <= k-1 (y is x shifted right with a fresh
// leading symbol) or symmetrically y_i = x_{i+1}. Under the hypothesis
// (2t)^k - 1 < t^k (2t - 1), *every* orientation of this graph with all
// outdegrees positive is a Nash equilibrium of the MAX version with
// local diameter k at every vertex; at t = 2^k this yields equilibria
// with diameter sqrt(log n) despite every player having positive budget —
// the paper's Braess-flavoured lower bound.

// ShiftGraph holds the undirected shift graph together with an
// orientation giving every vertex outdegree at least 1.
type ShiftGraph struct {
	T, K int
	D    *graph.Digraph
}

// NewShiftGraph constructs the shift graph for alphabet size t and word
// length k. It refuses parameter choices whose vertex count t^k exceeds
// maxVertices (guarding accidental t=2^k blowups; pass 0 for a default
// of 1<<20).
func NewShiftGraph(t, k, maxVertices int) (*ShiftGraph, error) {
	if t < 2 || k < 1 {
		return nil, fmt.Errorf("construct: shift graph needs t >= 2, k >= 1 (got t=%d k=%d)", t, k)
	}
	if maxVertices <= 0 {
		maxVertices = 1 << 20
	}
	n := 1
	for i := 0; i < k; i++ {
		if n > maxVertices/t {
			return nil, fmt.Errorf("construct: t^k = %d^%d exceeds %d vertices", t, k, maxVertices)
		}
		n *= t
	}
	// Vertex id <-> word: id = sum x_i * t^(k-i) with symbols 0..t-1
	// (the paper's 1..t shifted down). Left-shift neighbour of x with new
	// trailing symbol c: (x_2,...,x_k,c) = (id mod t^(k-1)) * t + c.
	pow := n / t // t^(k-1)
	adj := make(graph.Und, n)
	for id := 0; id < n; id++ {
		base := (id % pow) * t
		for c := 0; c < t; c++ {
			v := base + c
			if v != id {
				adj[id] = append(adj[id], v)
				adj[v] = append(adj[v], id)
			}
		}
	}
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
	}
	d, err := orientWithPositiveOutdegrees(adj)
	if err != nil {
		return nil, err
	}
	return &ShiftGraph{T: t, K: k, D: d}, nil
}

// orientWithPositiveOutdegrees orients a connected undirected graph that
// contains a cycle so that every vertex has outdegree >= 1 and no edge is
// doubled into a brace (the orientation realises U(G) = U exactly, as
// Lemma 5.2 requires): a cycle is oriented cyclically, every other vertex
// points along its BFS path toward the cycle, and the remaining edges go
// from their smaller endpoint.
func orientWithPositiveOutdegrees(adj graph.Und) (*graph.Digraph, error) {
	n := len(adj)
	d := graph.NewDigraph(n)
	cycle := findCycleDFS(adj)
	if cycle == nil {
		return nil, fmt.Errorf("construct: orientation requires a graph containing a cycle")
	}
	for i, u := range cycle {
		d.AddArc(u, cycle[(i+1)%len(cycle)])
	}
	onCycle := make([]bool, n)
	for _, u := range cycle {
		onCycle[u] = true
	}
	// Multi-source BFS from the cycle; every off-cycle vertex points to
	// its BFS parent (one step closer to the cycle).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if onCycle[v] {
			parent[v] = v
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range adj[u] {
			if parent[w] < 0 {
				parent[w] = u
				d.AddArc(w, u)
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("construct: orientation requires a connected graph (reached %d of %d)", len(queue), n)
	}
	// Remaining edges: orient from the smaller endpoint.
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if v > u && !d.HasArc(u, v) && !d.HasArc(v, u) {
				d.AddArc(u, v)
			}
		}
	}
	return d, nil
}

// findCycleDFS returns the vertex sequence of some simple cycle of length
// >= 3 in the undirected graph, or nil if the graph is a forest. In an
// undirected DFS every non-tree edge is a back edge, so the first edge to
// a visited non-parent vertex closes a cycle through the parent chain.
func findCycleDFS(adj graph.Und) []int {
	n := len(adj)
	parent := make([]int, n)
	state := make([]int8, n) // 0 unvisited, 1 visited
	for i := range parent {
		parent[i] = -1
	}
	for root := 0; root < n; root++ {
		if state[root] != 0 {
			continue
		}
		stack := []int{root}
		state[root] = 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[u] {
				if w == parent[u] {
					continue
				}
				if state[w] == 0 {
					state[w] = 1
					parent[w] = u
					stack = append(stack, w)
					continue
				}
				// Back edge u-w: climb from u until w. Because this is a
				// stack-based DFS the visited vertex w may not be an
				// ancestor of u; climb both endpoints to their lowest
				// common ancestor instead, which always yields a cycle.
				return cycleThroughLCA(parent, u, w)
			}
		}
	}
	return nil
}

// cycleThroughLCA builds the cycle formed by the tree paths u->lca and
// w->lca plus the edge {u,w}.
func cycleThroughLCA(parent []int, u, w int) []int {
	depth := func(v int) int {
		d := 0
		for parent[v] >= 0 {
			v = parent[v]
			d++
		}
		return d
	}
	du, dw := depth(u), depth(w)
	var upU, upW []int
	for du > dw {
		upU = append(upU, u)
		u = parent[u]
		du--
	}
	for dw > du {
		upW = append(upW, w)
		w = parent[w]
		dw--
	}
	for u != w {
		upU = append(upU, u)
		upW = append(upW, w)
		u = parent[u]
		w = parent[w]
	}
	cycle := append(upU, u) // u == w == lca
	for i := len(upW) - 1; i >= 0; i-- {
		cycle = append(cycle, upW[i])
	}
	return cycle
}

// Budgets returns the budget vector realized by the orientation
// (the outdegrees); all entries are positive by construction.
func (sg *ShiftGraph) Budgets() []int {
	budgets := make([]int, sg.D.N())
	for v := range budgets {
		budgets[v] = sg.D.OutDegree(v)
	}
	return budgets
}

// HypothesisHolds reports whether (2t)^k - 1 < t^k (2t - 1), the counting
// hypothesis of Lemma 5.2 (equivalently 2^k < 2t - 1). When it holds,
// every orientation with positive outdegrees is a MAX Nash equilibrium.
func (sg *ShiftGraph) HypothesisHolds() bool {
	// (2t)^k - 1 < t^k (2t-1)  <=>  2^k * t^k <= t^k (2t-1)  over the
	// integers <=> 2^k <= 2t - 2, i.e. 2^k < 2t - 1 for integer t.
	return pow64(2, sg.K) < 2*int64(sg.T)-1
}

// Certificate is the outcome of CertifyEquilibrium: the computationally
// checked premises from which Lemma 5.2 concludes that the orientation is
// a MAX Nash equilibrium.
type Certificate struct {
	N            int   // t^k vertices
	EccMin       int32 // smallest local diameter; must equal K
	EccMax       int32 // largest local diameter (= diameter); must equal K
	MinDegree    int   // must be >= 2
	MaxDegree    int   // must be <= 2t
	MinOutdegree int   // must be >= 1 (all budgets positive)
	Hypothesis   bool  // (2t)^k - 1 < t^k (2t-1)
	OK           bool
}

// CertifyEquilibrium verifies the structural premises of Lemma 5.2 on the
// built graph: local diameter exactly k at every vertex, minimum degree
// >= 2, maximum degree <= 2t, positive outdegrees, and the counting
// hypothesis. By the lemma's argument these imply the orientation is a
// Nash equilibrium of the MAX version; tests cross-check against exact
// verification on small instances.
func (sg *ShiftGraph) CertifyEquilibrium() Certificate {
	a := sg.D.Underlying()
	cert := Certificate{
		N:          sg.D.N(),
		MinDegree:  a.MinDegree(),
		MaxDegree:  a.MaxDegree(),
		Hypothesis: sg.HypothesisHolds(),
	}
	eccs, connected := graph.Eccentricities(a)
	if connected && len(eccs) > 0 {
		cert.EccMin, cert.EccMax = eccs[0], eccs[0]
		for _, e := range eccs {
			if e < cert.EccMin {
				cert.EccMin = e
			}
			if e > cert.EccMax {
				cert.EccMax = e
			}
		}
	}
	cert.MinOutdegree = sg.D.N()
	for v := 0; v < sg.D.N(); v++ {
		if od := sg.D.OutDegree(v); od < cert.MinOutdegree {
			cert.MinOutdegree = od
		}
	}
	cert.OK = connected &&
		cert.EccMin == int32(sg.K) &&
		cert.EccMax == int32(sg.K) &&
		cert.MinDegree >= 2 &&
		cert.MaxDegree <= 2*sg.T &&
		cert.MinOutdegree >= 1 &&
		cert.Hypothesis
	return cert
}

func pow64(b, e int) int64 {
	r := int64(1)
	for i := 0; i < e; i++ {
		r *= int64(b)
	}
	return r
}
