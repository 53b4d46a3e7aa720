package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
)

func TestTreeBallRadiusOnTree(t *testing.T) {
	// A tree: the ball is always a tree, so the radius is the
	// eccentricity of u.
	d, _, err := construct.PerfectBinaryTree(3)
	if err != nil {
		t.Fatal(err)
	}
	if r := TreeBallRadius(d, 0); r != 3 {
		t.Fatalf("root tree-ball radius = %d, want ecc = 3", r)
	}
	leaf := d.N() - 1
	if r := TreeBallRadius(d, leaf); r != 6 {
		t.Fatalf("leaf tree-ball radius = %d, want ecc = 6", r)
	}
}

func TestTreeBallRadiusStopsAtCycle(t *testing.T) {
	// A cycle with a pendant path: from the path's far end the ball is a
	// tree until it wraps the cycle.
	d := graph.NewDigraph(8)
	// 5-cycle 0..4, path 5-6-7 hanging off 0.
	for i := 0; i < 5; i++ {
		d.AddArc(i, (i+1)%5)
	}
	d.AddArc(5, 0)
	d.AddArc(6, 5)
	d.AddArc(7, 6)
	// From vertex 7: dist to cycle vertices 0:3, 1/4:4, 2/3:5. The ball
	// of radius 4 contains 0,1,4 but not the full cycle: edges 0-1, 0-4
	// only -> still a tree. Radius 5 swallows the cycle.
	if r := TreeBallRadius(d, 7); r != 4 {
		t.Fatalf("tree-ball radius from 7 = %d, want 4", r)
	}
	// From a cycle vertex the radius is smaller.
	if r := TreeBallRadius(d, 0); r >= 3 {
		t.Fatalf("tree-ball radius from 0 = %d, want < 3", r)
	}
}

func TestTreeBallRadiusBraceIsCycle(t *testing.T) {
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 0)
	d.AddArc(1, 2)
	// From 2: radius 1 ball = {2,1}: tree. Radius 2 includes the brace.
	if r := TreeBallRadius(d, 2); r != 1 {
		t.Fatalf("radius = %d, want 1 (brace is a 2-cycle)", r)
	}
}

func TestMaxTreeBallRadiusEquilibriaLogBound(t *testing.T) {
	// Theorem 6.1 on dynamics-reached SUM equilibria: tree-ball radii
	// stay O(log n) — for these sizes, comfortably under 2*log2(n)+4.
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{8, 12, 16} {
		g := core.UniformGame(n, 1, core.SUM)
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Responder: core.ExactResponder(0), DetectLoops: true, MaxRounds: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			continue
		}
		r := MaxTreeBallRadius(out.Final)
		bound := 2*int(math.Log2(float64(n))) + 4
		if r > bound {
			t.Fatalf("n=%d: max tree-ball radius %d exceeds %d", n, r, bound)
		}
	}
}

func TestAuditRichLeavesPath(t *testing.T) {
	// Directed path 0->1->...->4: vertex 0 is a rich leaf (degree 1,
	// owns an arc); vertex 4 is a poor leaf. Only one rich leaf: holds.
	wg := core.NewVertexWeighted(graph.PathGraph(5))
	audit := AuditRichLeaves(wg)
	if len(audit.RichLeaves) != 1 || audit.RichLeaves[0] != 0 {
		t.Fatalf("rich leaves = %v, want [0]", audit.RichLeaves)
	}
	if !audit.Holds {
		t.Fatal("single rich leaf must trivially satisfy Lemma 6.4")
	}
}

func TestAuditRichLeavesViolationDetected(t *testing.T) {
	// Two rich leaves at distance 4: 0->1, 1->2 chain with rich leaves
	// 0 and 4 (4 owns arc to 3). Not a weak equilibrium, and the audit
	// must say the lemma's conclusion fails here.
	d := graph.NewDigraph(5)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(3, 2)
	d.AddArc(4, 3)
	wg := core.NewVertexWeighted(d)
	audit := AuditRichLeaves(wg)
	if len(audit.RichLeaves) != 2 {
		t.Fatalf("rich leaves = %v, want two", audit.RichLeaves)
	}
	if audit.Holds {
		t.Fatal("distance-4 rich leaves should violate the lemma's conclusion")
	}
	// Consistency with Lemma 6.4: the graph must then admit an improving
	// swap (it is not a weak equilibrium).
	if wg.WeakDeviation() == nil {
		t.Fatal("contrapositive failed: no improving swap found")
	}
}

func TestFoldExperimentStar(t *testing.T) {
	wg := core.NewVertexWeighted(graph.StarGraph(9))
	report, err := FoldExperiment(wg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Folds != 8 || report.AliveAfter != 1 {
		t.Fatalf("star fold report: %+v", report)
	}
	if !report.WeightConserved {
		t.Fatal("folding must conserve total weight")
	}
	if !report.WeakBefore || !report.WeakAfter {
		t.Fatalf("star is a weak equilibrium before and after folding: %+v", report)
	}
}

func TestFoldExperimentBinaryTreePreservesWeakEquilibrium(t *testing.T) {
	// Corollary 6.3 on a genuine SUM equilibrium: folding the leaves
	// of the binary tree yields another weak equilibrium, with the
	// diameter shrinking by at most O(log w).
	d, _, err := construct.PerfectBinaryTree(3)
	if err != nil {
		t.Fatal(err)
	}
	wg := core.NewVertexWeighted(d.Clone())
	report, err := FoldExperiment(wg)
	if err != nil {
		t.Fatal(err)
	}
	if !report.WeakBefore {
		t.Fatal("binary tree should be a weak equilibrium")
	}
	if !report.WeakAfter {
		t.Fatal("Corollary 6.3 violated: folded graph admits an improving swap")
	}
	if report.DiameterShrink < 0 {
		t.Fatal("folding cannot increase the diameter")
	}
	if int(report.DiameterShrink) > 2*report.LogWeightCeiling {
		t.Fatalf("diameter shrank by %d, beyond the O(log w) budget %d",
			report.DiameterShrink, 2*report.LogWeightCeiling)
	}
}

func TestFoldExperimentEmptyGraph(t *testing.T) {
	wg := core.NewVertexWeighted(graph.NewDigraph(0))
	if _, err := FoldExperiment(wg); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestDegreeTwoPathEdges(t *testing.T) {
	a := graph.PathGraph(6).Underlying()
	path := []int{0, 1, 2, 3, 4, 5}
	// Interior vertices 1..4 have degree 2; edges 1-2, 2-3, 3-4 qualify.
	if got := DegreeTwoPathEdges(a, path); got != 3 {
		t.Fatalf("degree-2 edges = %d, want 3", got)
	}
	star := graph.StarGraph(4).Underlying()
	if got := DegreeTwoPathEdges(star, []int{1, 0, 2}); got != 0 {
		t.Fatalf("star degree-2 edges = %d, want 0", got)
	}
}
