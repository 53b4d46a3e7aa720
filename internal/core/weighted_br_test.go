package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestWeightedBestResponseMatchesUnweighted(t *testing.T) {
	// Unit weights, no folds: weighted and plain SUM best responses must
	// attain the same optimal cost for every player.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(4)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = rng.Intn(3)
		}
		d := graph.RandomOutDigraph(budgets, rng)
		for u := 0; u < n; u++ {
			if budgets[u] == 0 {
				continue
			}
			wg := NewVertexWeighted(d.Clone())
			wCost, pCost, err := wg.UnweightedEquivalent(u, d)
			if err != nil {
				t.Fatal(err)
			}
			if wCost != pCost {
				t.Fatalf("trial %d vertex %d: weighted BR cost %d, plain %d", trial, u, wCost, pCost)
			}
		}
	}
}

func TestWeightedBestResponseRestoresGraph(t *testing.T) {
	d := graph.PathGraph(5)
	wg := NewVertexWeighted(d)
	before := d.Clone()
	if _, err := wg.WeightedBestResponse(0, 0); err != nil {
		t.Fatal(err)
	}
	if !d.Equal(before) {
		t.Fatal("WeightedBestResponse left the graph mutated")
	}
}

func TestWeightedBestResponseSkipsFoldedTargets(t *testing.T) {
	d := graph.NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(0, 2)
	d.AddArc(0, 3)
	wg := NewVertexWeighted(d)
	if err := wg.FoldPoorLeaf(3); err != nil {
		t.Fatal(err)
	}
	br, err := wg.WeightedBestResponse(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range br.Strategy {
		if !wg.Alive(v) {
			t.Fatalf("best response targets folded vertex %d", v)
		}
	}
}

func TestWeightedBestResponseFoldedVertexRejected(t *testing.T) {
	d := graph.StarGraph(4)
	wg := NewVertexWeighted(d)
	if err := wg.FoldPoorLeaf(2); err != nil {
		t.Fatal(err)
	}
	if _, err := wg.WeightedBestResponse(2, 0); err == nil {
		t.Fatal("folded vertex accepted")
	}
}

func TestWeightedBestResponseCap(t *testing.T) {
	d := graph.CompleteDigraph(12)
	wg := NewVertexWeighted(d)
	if _, err := wg.WeightedBestResponse(3, 2); err == nil {
		t.Fatal("cap not enforced")
	}
}

func TestWeightedNashAfterFoldingBinaryTreeShape(t *testing.T) {
	// Build the k=3 perfect binary tree inline; it is a SUM equilibrium.
	// After folding all leaves, the weighted graph must still admit no
	// improving deviation (the strong form of Corollary 6.3 on this
	// instance).
	n := 15
	d := graph.NewDigraph(n)
	for i := 1; 2*i+1 <= n; i++ {
		d.AddArc(i-1, 2*i-1)
		d.AddArc(i-1, 2*i)
	}
	wg := NewVertexWeighted(d)
	dev, err := wg.WeightedNashDeviation(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev != nil {
		t.Fatalf("binary tree refuted in weighted model before folding: %v", dev)
	}
	wg.FoldAllPoorLeaves()
	dev, err = wg.WeightedNashDeviation(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev != nil {
		t.Fatalf("folded binary tree admits weighted deviation: %v", dev)
	}
}

// withRebuildPath runs fn with the distance cache disabled, forcing
// WeightedBestResponse onto the historical rebuild-per-candidate path.
func withRebuildPath(fn func()) {
	old := DefaultCacheBudget
	DefaultCacheBudget = 0
	defer func() { DefaultCacheBudget = old }()
	fn()
}

// The cached weighted best response must agree with the rebuild path in
// every field — cost, current cost, chosen strategy (tie-breaking
// included) and candidate count — across random graphs, random positive
// weights, and folded vertices.
func TestWeightedBestResponseCachedMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(5)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = rng.Intn(3)
		}
		d := graph.RandomOutDigraph(budgets, rng)
		wg := NewVertexWeighted(d)
		if trial%2 == 0 {
			wg.FoldAllPoorLeaves()
		}
		for i := range wg.W {
			if wg.W[i] > 0 {
				wg.W[i] = 1 + int64(rng.Intn(5))
			}
		}
		for u := 0; u < n; u++ {
			if !wg.Alive(u) || wg.D.OutDegree(u) == 0 {
				continue
			}
			cached, err := wg.WeightedBestResponse(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			var rebuilt BestResponse
			withRebuildPath(func() {
				rebuilt, err = wg.WeightedBestResponse(u, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if cached.Cost != rebuilt.Cost || cached.Current != rebuilt.Current ||
				cached.Explored != rebuilt.Explored {
				t.Fatalf("trial %d vertex %d: cached %+v, rebuild %+v", trial, u, cached, rebuilt)
			}
			if len(cached.Strategy) != len(rebuilt.Strategy) {
				t.Fatalf("trial %d vertex %d: strategies differ: %v vs %v",
					trial, u, cached.Strategy, rebuilt.Strategy)
			}
			for i := range cached.Strategy {
				if cached.Strategy[i] != rebuilt.Strategy[i] {
					t.Fatalf("trial %d vertex %d: strategies differ: %v vs %v",
						trial, u, cached.Strategy, rebuilt.Strategy)
				}
			}
		}
	}
}

// The full weighted Nash search must agree across both paths too (it is
// what the folding audits call).
func TestWeightedNashDeviationCachedMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(4)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = rng.Intn(2)
		}
		d := graph.RandomOutDigraph(budgets, rng)
		wg := NewVertexWeighted(d)
		wg.FoldAllPoorLeaves()
		cachedDev, err := wg.WeightedNashDeviation(0)
		if err != nil {
			t.Fatal(err)
		}
		var rebuiltDev *Deviation
		withRebuildPath(func() {
			rebuiltDev, err = wg.WeightedNashDeviation(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if (cachedDev == nil) != (rebuiltDev == nil) {
			t.Fatalf("trial %d: cached deviation %v, rebuild %v", trial, cachedDev, rebuiltDev)
		}
		if cachedDev != nil {
			if cachedDev.Vertex != rebuiltDev.Vertex || cachedDev.OldCost != rebuiltDev.OldCost ||
				cachedDev.NewCost != rebuiltDev.NewCost {
				t.Fatalf("trial %d: cached %+v, rebuild %+v", trial, cachedDev, rebuiltDev)
			}
		}
	}
}
