package core

import (
	"testing"

	"repro/internal/graph"
)

func TestWeightedCostUnitWeightsMatchesSUM(t *testing.T) {
	d := graph.PathGraph(5)
	g := GameOf(d, SUM)
	wg := NewVertexWeighted(d.Clone())
	for u := 0; u < 5; u++ {
		if got, want := wg.Cost(u), g.Cost(d, u); got != want {
			t.Fatalf("unit-weight cost(%d) = %d, SUM cost = %d", u, got, want)
		}
	}
}

func TestPoorAndRichLeaves(t *testing.T) {
	// 0 -> 1 (1 is poor: degree 1, owns nothing), 2 -> 0 (2 is rich).
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(2, 0)
	wg := NewVertexWeighted(d)
	poor := wg.PoorLeaves()
	rich := wg.RichLeaves()
	if len(poor) != 1 || poor[0] != 1 {
		t.Fatalf("poor leaves = %v, want [1]", poor)
	}
	if len(rich) != 1 || rich[0] != 2 {
		t.Fatalf("rich leaves = %v, want [2]", rich)
	}
}

func TestFoldPoorLeaf(t *testing.T) {
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(0, 2)
	wg := NewVertexWeighted(d)
	if err := wg.FoldPoorLeaf(1); err != nil {
		t.Fatal(err)
	}
	if wg.W[0] != 2 || wg.W[1] != 0 {
		t.Fatalf("weights after fold: %v", wg.W)
	}
	if d.HasArc(0, 1) {
		t.Fatal("arc to folded leaf not removed")
	}
	if wg.AliveCount() != 2 {
		t.Fatalf("alive = %d, want 2", wg.AliveCount())
	}
	if wg.TotalWeight() != 3 {
		t.Fatalf("total weight changed: %d", wg.TotalWeight())
	}
}

func TestFoldPoorLeafErrors(t *testing.T) {
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	wg := NewVertexWeighted(d)
	if err := wg.FoldPoorLeaf(1); err == nil {
		t.Fatal("vertex owning arcs folded as poor leaf")
	}
	if err := wg.FoldPoorLeaf(2); err != nil {
		t.Fatalf("genuine poor leaf rejected: %v", err)
	}
	if err := wg.FoldPoorLeaf(2); err == nil {
		t.Fatal("double fold accepted")
	}
}

func TestFoldAllPoorLeavesStar(t *testing.T) {
	// Star centre owning all arcs: every leaf is poor; all fold into the
	// centre, which ends with weight n.
	d := graph.StarGraph(6)
	wg := NewVertexWeighted(d)
	folds := wg.FoldAllPoorLeaves()
	if folds != 5 {
		t.Fatalf("folds = %d, want 5", folds)
	}
	if wg.W[0] != 6 || wg.AliveCount() != 1 {
		t.Fatalf("after folding star: W=%v", wg.W)
	}
}

func TestFoldAllPoorLeavesCascade(t *testing.T) {
	// Directed path 0->1->2->3: only 3 is poor; folding it makes 2 a
	// leaf but 2 owns an arc... after removing 2->3, vertex 2 owns
	// nothing and has degree 1 (edge 1-2): poor. Cascades to the root.
	d := graph.PathGraph(4)
	wg := NewVertexWeighted(d)
	folds := wg.FoldAllPoorLeaves()
	if folds != 3 {
		t.Fatalf("folds = %d, want 3", folds)
	}
	if wg.W[0] != 4 || wg.AliveCount() != 1 {
		t.Fatalf("cascade fold wrong: W=%v", wg.W)
	}
}

func TestFoldPreservesTotalWeight(t *testing.T) {
	d := graph.StarGraph(8)
	wg := NewVertexWeighted(d)
	before := wg.TotalWeight()
	wg.FoldAllPoorLeaves()
	if wg.TotalWeight() != before {
		t.Fatalf("total weight changed %d -> %d", before, wg.TotalWeight())
	}
}

func TestWeightedCostSkipsFolded(t *testing.T) {
	d := graph.NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(0, 2)
	d.AddArc(0, 3)
	wg := NewVertexWeighted(d)
	if err := wg.FoldPoorLeaf(3); err != nil {
		t.Fatal(err)
	}
	// Cost of 1: dist to 0 (1) * w0=2... wait w0 = 1+1 = 2, dist 1;
	// dist to 2 = 2 * w2=1. Folded 3 excluded.
	if got := wg.Cost(1); got != 2*1+1*2 {
		t.Fatalf("cost(1) = %d, want 4", got)
	}
}

func TestWeakDeviationNilOnStar(t *testing.T) {
	wg := NewVertexWeighted(graph.StarGraph(5))
	if dev := wg.WeakDeviation(); dev != nil {
		t.Fatalf("star has improving weighted swap: %v", dev)
	}
}

func TestWeakDeviationFindsPathImprovement(t *testing.T) {
	wg := NewVertexWeighted(graph.PathGraph(6))
	dev := wg.WeakDeviation()
	if dev == nil {
		t.Fatal("long path should admit an improving swap")
	}
	if dev.NewCost >= dev.OldCost {
		t.Fatalf("witness does not improve: %v", dev)
	}
}

func TestWeakDeviationRespectsFoldedVertices(t *testing.T) {
	// After folding, swaps may not target dead vertices.
	d := graph.PathGraph(5)
	wg := NewVertexWeighted(d)
	wg.FoldAllPoorLeaves()
	if dev := wg.WeakDeviation(); dev != nil {
		for _, v := range dev.NewStrategy {
			if !wg.Alive(v) {
				t.Fatalf("deviation targets folded vertex: %v", dev)
			}
		}
	}
}
