package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Section 6 audits: the machinery behind the 2^O(sqrt(log n)) SUM upper
// bound, checked computationally. Theorem 6.1 bounds the radius of
// tree-like balls around any vertex of an equilibrium by O(log n);
// Lemma 6.4 pins any two rich leaves of a weak equilibrium within
// distance 2; Corollary 6.3 says folding away all poor leaves preserves
// weak equilibrium and shrinks the diameter by only O(log w(G)).

// TreeBallRadius returns the largest radius r such that the subgraph
// induced by B_r(u) = {v : dist(u,v) <= r} is a tree (connected and
// acyclic, counting a brace as a cycle). For a vertex inside a tree
// component it returns the eccentricity of u. Theorem 6.1: on SUM
// equilibria this radius is O(log n).
func TreeBallRadius(d *graph.Digraph, u int) int {
	a := d.Underlying()
	n := d.N()
	dist := graph.BFSDist(a, u)
	var maxEcc int32
	for _, dv := range dist {
		if dv > maxEcc {
			maxEcc = dv
		}
	}
	// Braces inside the ball are 2-cycles: radius must stop before
	// swallowing both endpoints of one.
	braceAt := func(r int32) bool {
		for _, br := range d.Braces() {
			if dist[br[0]] >= 0 && dist[br[1]] >= 0 && dist[br[0]] <= r && dist[br[1]] <= r {
				return true
			}
		}
		return false
	}
	best := 0
	for r := int32(0); r <= maxEcc; r++ {
		// Count vertices and induced edges within radius r.
		vertices, edges := 0, 0
		for v := 0; v < n; v++ {
			if dist[v] < 0 || dist[v] > r {
				continue
			}
			vertices++
			for _, w := range a[v] {
				if w > v && dist[w] >= 0 && dist[w] <= r {
					edges++
				}
			}
		}
		if edges != vertices-1 || braceAt(r) {
			break // induced ball has a cycle (or is somehow fragmented)
		}
		best = int(r)
	}
	return best
}

// MaxTreeBallRadius returns the largest tree-ball radius over all
// vertices — the quantity Theorem 6.1 bounds by O(log n) on equilibria.
func MaxTreeBallRadius(d *graph.Digraph) int {
	best := 0
	for u := 0; u < d.N(); u++ {
		if r := TreeBallRadius(d, u); r > best {
			best = r
		}
	}
	return best
}

// RichLeafAudit is the Lemma 6.4 check on a weighted weak equilibrium.
type RichLeafAudit struct {
	RichLeaves  []int
	MaxPairDist int32 // 0 when fewer than two rich leaves
	Holds       bool  // MaxPairDist <= 2
}

// AuditRichLeaves measures the maximum pairwise distance between rich
// leaves of wg. On weighted weak equilibria Lemma 6.4 caps it at 2.
func AuditRichLeaves(wg *core.VertexWeighted) RichLeafAudit {
	audit := RichLeafAudit{RichLeaves: wg.RichLeaves(), Holds: true}
	a := wg.D.Underlying()
	for i, u := range audit.RichLeaves {
		dist := graph.BFSDist(a, u)
		for _, v := range audit.RichLeaves[i+1:] {
			if dist[v] < 0 {
				continue // different components: lemma assumes connected
			}
			if dist[v] > audit.MaxPairDist {
				audit.MaxPairDist = dist[v]
			}
		}
	}
	audit.Holds = audit.MaxPairDist <= 2
	return audit
}

// FoldReport records a Corollary 6.3 folding experiment.
type FoldReport struct {
	Folds            int
	DiameterBefore   int32
	DiameterAfter    int32 // diameter of the alive induced subgraph
	AliveBefore      int
	AliveAfter       int
	WeightConserved  bool
	WeakBefore       bool // no improving swap before folding
	WeakAfter        bool // ... and after (Corollary 6.3's invariant)
	DiameterShrink   int32
	LogWeightCeiling int // ceil(log2 w(G)) + 1, the shrink budget per fold chain
}

// FoldExperiment runs the Corollary 6.3 pipeline on a weighted graph:
// measure, fold all poor leaves, re-measure. The weak-equilibrium flags
// let tests confirm the corollary's "G' is also a weak equilibrium"
// claim on graphs that start as weak equilibria.
func FoldExperiment(wg *core.VertexWeighted) (FoldReport, error) {
	if wg.AliveCount() == 0 {
		return FoldReport{}, fmt.Errorf("analysis: empty weighted graph")
	}
	report := FoldReport{
		AliveBefore:    wg.AliveCount(),
		DiameterBefore: aliveDiameter(wg),
		WeakBefore:     wg.WeakDeviation() == nil,
	}
	weightBefore := wg.TotalWeight()
	report.Folds = wg.FoldAllPoorLeaves()
	report.AliveAfter = wg.AliveCount()
	report.DiameterAfter = aliveDiameter(wg)
	report.WeightConserved = wg.TotalWeight() == weightBefore
	report.WeakAfter = wg.WeakDeviation() == nil
	report.DiameterShrink = report.DiameterBefore - report.DiameterAfter
	for w := int64(1); w < weightBefore; w *= 2 {
		report.LogWeightCeiling++
	}
	report.LogWeightCeiling++
	return report, nil
}

// aliveDiameter computes the diameter of the subgraph induced by alive
// vertices (the folded graph), -1 if disconnected or empty.
func aliveDiameter(wg *core.VertexWeighted) int32 {
	a := wg.D.Underlying()
	alive := make([]int, 0, wg.D.N())
	for v := 0; v < wg.D.N(); v++ {
		if wg.Alive(v) {
			alive = append(alive, v)
		}
	}
	if len(alive) == 0 {
		return -1
	}
	// Folding only removes leaves, so alive vertices keep their pairwise
	// distances within the alive subgraph equal to distances in the full
	// graph; BFS from each alive vertex over the full adjacency is exact.
	var diam int32
	for _, u := range alive {
		dist := graph.BFSDist(a, u)
		for _, v := range alive {
			if dist[v] < 0 {
				return -1
			}
			if dist[v] > diam {
				diam = dist[v]
			}
		}
	}
	return diam
}

// DegreeTwoPathEdges counts, along the path vertices supplied, the edges
// whose two endpoints both have degree 2 — the quantity Lemma 6.5 bounds
// by O(log w(P)) on weak equilibria.
func DegreeTwoPathEdges(a graph.Und, path []int) int {
	count := 0
	for i := 0; i+1 < len(path); i++ {
		if a.Degree(path[i]) == 2 && a.Degree(path[i+1]) == 2 {
			count++
		}
	}
	return count
}
