package core

import (
	"fmt"

	"repro/internal/graph"
)

// Weighted weak-equilibrium machinery from Section 6. The proof of the
// 2^O(sqrt(log n)) SUM upper bound folds "poor leaves" (degree-1 vertices
// owning no arc) into their neighbours, transferring weight; the folded
// graph remains a weak equilibrium (no improving single-arc swap) and the
// operation shrinks trees by O(log w) height (Lemma 6.2). This package
// implements the weighted cost, the fold, and the weak-equilibrium check
// so the analysis package can audit the proof's invariants empirically.

// VertexWeighted couples a realization with positive integer vertex
// weights. Weight 0 marks folded-away vertices (they are excluded from all
// cost sums and act as if deleted).
type VertexWeighted struct {
	D *graph.Digraph
	W []int64
}

// NewVertexWeighted wraps d with unit weights.
func NewVertexWeighted(d *graph.Digraph) *VertexWeighted {
	w := make([]int64, d.N())
	for i := range w {
		w[i] = 1
	}
	return &VertexWeighted{D: d, W: w}
}

// TotalWeight returns w(G), the sum of all vertex weights.
func (wg *VertexWeighted) TotalWeight() int64 {
	var t int64
	for _, w := range wg.W {
		t += w
	}
	return t
}

// Alive reports whether v has not been folded away.
func (wg *VertexWeighted) Alive(v int) bool { return wg.W[v] > 0 }

// AliveCount returns the number of unfolded vertices.
func (wg *VertexWeighted) AliveCount() int {
	c := 0
	for _, w := range wg.W {
		if w > 0 {
			c++
		}
	}
	return c
}

// Cost returns the weighted SUM cost of u: sum over alive v of
// w(v)*dist(u,v), treating unreachable alive vertices as distance n^2.
func (wg *VertexWeighted) Cost(u int) int64 {
	n := wg.D.N()
	a := wg.D.Underlying()
	s := graph.NewScratch(n)
	s.BFS(a, u)
	cinf := int64(n) * int64(n)
	var c int64
	for v := 0; v < n; v++ {
		if v == u || wg.W[v] == 0 {
			continue
		}
		if d := s.Dist(v); d >= 0 {
			c += wg.W[v] * int64(d)
		} else {
			c += wg.W[v] * cinf
		}
	}
	return c
}

// Leaf classification per Section 6: a leaf is a degree-1 alive vertex; a
// poor leaf owns no arc (outdegree 0), a rich leaf owns exactly one.

// PoorLeaves returns all alive degree-1 vertices with outdegree 0.
func (wg *VertexWeighted) PoorLeaves() []int {
	return wg.leaves(true)
}

// RichLeaves returns all alive degree-1 vertices with outdegree 1.
func (wg *VertexWeighted) RichLeaves() []int {
	return wg.leaves(false)
}

func (wg *VertexWeighted) leaves(poor bool) []int {
	a := wg.D.Underlying()
	var ls []int
	for v := 0; v < wg.D.N(); v++ {
		if !wg.Alive(v) || len(a[v]) != 1 {
			continue
		}
		if (wg.D.OutDegree(v) == 0) == poor {
			ls = append(ls, v)
		}
	}
	return ls
}

// FoldPoorLeaf removes poor leaf l (owned by some arc u->l) and adds its
// weight to u, per the G_0 construction before Lemma 6.2. It errors if l
// is not a poor leaf.
func (wg *VertexWeighted) FoldPoorLeaf(l int) error {
	if !wg.Alive(l) {
		return fmt.Errorf("core: vertex %d already folded", l)
	}
	if wg.D.OutDegree(l) != 0 {
		return fmt.Errorf("core: vertex %d owns arcs; not a poor leaf", l)
	}
	in := wg.D.In(l)
	if len(in) != 1 {
		return fmt.Errorf("core: vertex %d has %d incoming arcs; not a leaf", l, len(in))
	}
	u := in[0]
	wg.D.RemoveArc(u, l)
	wg.W[u] += wg.W[l]
	wg.W[l] = 0
	return nil
}

// FoldAllPoorLeaves repeatedly folds poor leaves until none remain,
// returning the number of folds. Folding can expose new poor leaves
// (a path of non-owners collapses inward), so the loop iterates to a
// fixed point — this is the "sequence of subtree folds" of Corollary 6.3.
func (wg *VertexWeighted) FoldAllPoorLeaves() int {
	folds := 0
	for {
		ls := wg.PoorLeaves()
		if len(ls) == 0 {
			return folds
		}
		for _, l := range ls {
			// A vertex listed as poor may have gained degree... it
			// cannot: folding only removes edges. It may however have
			// been folded already if listed twice (impossible: one list
			// entry per vertex). Fold unconditionally.
			if err := wg.FoldPoorLeaf(l); err == nil {
				folds++
			}
		}
	}
}

// WeakDeviation searches for an improving single-arc swap by any alive
// vertex in the weighted graph (the weak-equilibrium condition of Section
// 6). It returns nil if the graph is a weighted weak equilibrium.
func (wg *VertexWeighted) WeakDeviation() *Deviation {
	n := wg.D.N()
	for u := 0; u < n; u++ {
		if !wg.Alive(u) || wg.D.OutDegree(u) == 0 {
			continue
		}
		cur := wg.Cost(u)
		out := append([]int(nil), wg.D.Out(u)...)
		for _, v := range out {
			for x := 0; x < n; x++ {
				if x == u || x == v || !wg.Alive(x) || wg.D.HasArc(u, x) {
					continue
				}
				wg.D.RemoveArc(u, v)
				wg.D.AddArc(u, x)
				c := wg.Cost(u)
				wg.D.RemoveArc(u, x)
				wg.D.AddArc(u, v)
				if c < cur {
					ns := append([]int(nil), wg.D.Out(u)...)
					for i := range ns {
						if ns[i] == v {
							ns[i] = x
						}
					}
					return &Deviation{Vertex: u, NewStrategy: ns, OldCost: cur, NewCost: c}
				}
			}
		}
	}
	return nil
}
