package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// The cost model on a concrete graph: a directed path, SUM version.
func ExampleGame_Cost() {
	d := graph.PathGraph(4) // 0 -> 1 -> 2 -> 3
	g := core.GameOf(d, core.SUM)
	fmt.Println(g.Cost(d, 0)) // 1 + 2 + 3
	fmt.Println(g.Cost(d, 1)) // 1 + 1 + 2
	// Output:
	// 6
	// 4
}

// Computing a best response: the path endpoint rewires to the centre.
func ExampleGame_ExactBestResponse() {
	d := graph.PathGraph(5)
	g := core.GameOf(d, core.SUM)
	br, _ := g.ExactBestResponse(d, 0, 0)
	fmt.Println(br.Strategy, br.Current, "->", br.Cost)
	// Output: [2] 10 -> 8
}

// Verifying an equilibrium: the star is stable, the path is not.
func ExampleGame_VerifyNash() {
	star := graph.StarGraph(5)
	g := core.GameOf(star, core.MAX)
	dev, _ := g.VerifyNash(star, 0)
	fmt.Println("star deviation:", dev)

	path := graph.PathGraph(5)
	gp := core.GameOf(path, core.MAX)
	dev, _ = gp.VerifyNash(path, 0)
	fmt.Println("path has deviation:", dev != nil)
	// Output:
	// star deviation: <nil>
	// path has deviation: true
}

// Section 6's weighted folding: leaves collapse into their owners.
func ExampleVertexWeighted_FoldAllPoorLeaves() {
	wg := core.NewVertexWeighted(graph.StarGraph(4))
	folds := wg.FoldAllPoorLeaves()
	fmt.Println(folds, wg.W[0], wg.AliveCount())
	// Output: 3 4 1
}
