package core

import "repro/internal/graph"

// Weighted cache mode of the deviation engine. A Deviator built by
// NewWeightedDeviator evaluates arc-weighted (graph.Weights) deviation
// costs; EnsureCache then fills the rows with raw weighted distances of
// G-u, and every kernel adds anchor v's offset w(u,v) - 1 as row v
// enters a merge (graph/weighted.go), so every unweighted kernel — the
// fused min-merge evaluation, the greedy/swap/exact scans and the
// suffix bounds — runs on them unchanged. A weighted CachePool keeps
// its shared matrix in sync with weight mutations (pool.go); this file
// holds the Dijkstra fallback for instances whose weighted distances
// don't fit the int32 cache, and the weighted responders.

// evalWeightedDijkstra is the weighted Eval fallback: one Dijkstra over
// the fixed adjacency plus virtual strategy arcs, used when no weighted
// cache is active. Bit-identical to the cached evaluation wherever both
// are defined (the cache refuses only instances it cannot encode).
func (dv *Deviator) evalWeightedDijkstra(strategy []int) int64 {
	n := dv.game.N()
	if dv.wes == nil {
		dv.wes = &graph.WEvalScratch{}
	}
	agg := dv.wes.DeviationDijkstra(dv.base, dv.wts, dv.u, strategy)
	kappa := 1
	if agg.Reached != n {
		touched := graph.CountComponentsTouched(dv.label, dv.seen, dv.u, strategy, dv.in)
		kappa = dv.comps - touched + 1
	}
	return costFromAgg(n, dv.cinf, dv.game.Version, agg.Ecc, agg.Sum, agg.Reached, kappa)
}

// WeightedGreedyResponder is GreedyResponder under arc weights wts: the
// marginal-cost greedy evaluated on weighted shortest-path distances.
func WeightedGreedyResponder(wts *graph.Weights) Responder {
	return func(g *Game, d *graph.Digraph, u int) BestResponse {
		dv := NewWeightedDeviator(g, d, u, wts)
		defer dv.release()
		dv.EnsureCache(DefaultCacheBudget)
		return g.greedyOn(dv, d)
	}
}

// WeightedSwapResponder is SwapResponder under arc weights wts.
func WeightedSwapResponder(wts *graph.Weights) Responder {
	return func(g *Game, d *graph.Digraph, u int) BestResponse {
		dv := NewWeightedDeviator(g, d, u, wts)
		defer dv.release()
		dv.EnsureCache(DefaultCacheBudget)
		return g.swapOn(dv, d)
	}
}

// WeightedExactResponder is ExactResponder under arc weights wts
// (panics past maxCandidates, like its unweighted counterpart).
func WeightedExactResponder(wts *graph.Weights, maxCandidates int64) Responder {
	return func(g *Game, d *graph.Digraph, u int) BestResponse {
		n, b := g.N(), g.Budgets[u]
		space := StrategySpaceSize(n, b)
		if maxCandidates > 0 && space > maxCandidates {
			panic("core: weighted exact strategy space exceeds candidate budget")
		}
		dv := NewWeightedDeviator(g, d, u, wts)
		defer dv.release()
		if space >= int64(n) {
			dv.EnsureCache(DefaultCacheBudget)
		}
		return g.exactOn(dv, d)
	}
}

// WeightedAllCosts returns every player's cost in realization d under
// arc weights wts: one weighted SSSP per source over the underlying
// graph, with the disconnection penalty scaled to n²·MaxW. At unit
// weights it equals AllCosts.
func (g *Game) WeightedAllCosts(d *graph.Digraph, wts *graph.Weights) []int64 {
	n := d.N()
	a := d.Underlying()
	_, kappa := graph.Components(a)
	cinf := int64(n) * int64(n) * int64(wts.MaxW())
	costs := make([]int64, n)
	var ws graph.WEvalScratch
	for u := 0; u < n; u++ {
		agg := ws.DeviationDijkstra(a, wts, u, nil)
		costs[u] = costFromAgg(n, cinf, g.Version, agg.Ecc, agg.Sum, agg.Reached, kappa)
	}
	return costs
}

// WeightedSocialCost returns the weighted diameter of the realization,
// or the n²·MaxW disconnection penalty when it is not connected — the
// arc-weighted analogue of SocialCost.
func (g *Game) WeightedSocialCost(d *graph.Digraph, wts *graph.Weights) int64 {
	n := d.N()
	a := d.Underlying()
	var ws graph.WEvalScratch
	var diam int64
	for u := 0; u < n; u++ {
		agg := ws.DeviationDijkstra(a, wts, u, nil)
		if agg.Reached != n {
			return int64(n) * int64(n) * int64(wts.MaxW())
		}
		if agg.Ecc > diam {
			diam = agg.Ecc
		}
	}
	return diam
}
