package core

import "repro/internal/graph"

// Costs of vertices in a realized graph, straight from Section 1.2 of the
// paper. All costs are int64: with C_inf = n^2 the SUM cost is bounded by
// n * n^2, which stays well inside int64 for every instance size swept
// here.

// Cost returns the cost incurred to vertex u in realization d under the
// game's version.
func (g *Game) Cost(d *graph.Digraph, u int) int64 {
	a := d.Underlying()
	s := graph.NewScratch(d.N())
	return g.costFromBFS(s.BFS(a, u), componentCount(a))
}

// AllCosts returns every vertex's cost in one pass: a shared component
// count plus one batched aggregate BFS (graph.AggregateBFS) that
// computes every source's eccentricity, distance sum and reach without
// materialising per-pair distances.
func (g *Game) AllCosts(d *graph.Digraph) []int64 {
	n := d.N()
	a := d.Underlying()
	_, kappa := graph.Components(a)
	ecc, sums, reached := graph.AggregateBFS(a)
	costs := make([]int64, n)
	for u := 0; u < n; u++ {
		r := graph.BFSResult{Ecc: ecc[u], Sum: sums[u], Reached: int(reached[u])}
		costs[u] = g.costFromBFS(r, kappa)
	}
	return costs
}

// SocialCost returns the social cost of the realization: its diameter,
// or C_inf = n^2 when disconnected (the diameter convention the paper
// uses when defining the price of anarchy for sub-threshold budgets).
func (g *Game) SocialCost(d *graph.Digraph) int64 {
	diam := graph.Diameter(d.Underlying())
	if diam == graph.InfDiameter {
		return g.Cinf()
	}
	return int64(diam)
}

// costFromBFS converts one BFS result plus the global component count into
// the player cost. reached == n means connected from u's side; kappa is
// the component count of the whole graph.
func (g *Game) costFromBFS(r graph.BFSResult, kappa int) int64 {
	return costFrom(g.N(), g.Cinf(), g.Version, r, kappa)
}

// costFrom is the cost rule with an explicit disconnection penalty, so
// weighted Deviators (cinf = n²·maxW, dominating every finite weighted
// sum exactly as n² dominates every hop count) share one funnel with
// the unweighted engines.
func costFrom(n int, cinf int64, v Version, r graph.BFSResult, kappa int) int64 {
	return costFromAgg(n, cinf, v, int64(r.Ecc), r.Sum, r.Reached, kappa)
}

// costFromAgg is costFrom over int64 aggregates — the weighted Dijkstra
// fallback produces eccentricities that need not fit int32.
func costFromAgg(n int, cinf int64, v Version, ecc, sum int64, reached, kappa int) int64 {
	switch v {
	case SUM:
		return sum + int64(n-reached)*cinf
	case MAX:
		local := ecc
		if kappa > 1 {
			// Disconnected: every vertex has local diameter n^2.
			local = cinf
		}
		return local + int64(kappa-1)*cinf
	default:
		panic("core: unknown version")
	}
}

func componentCount(a graph.Und) int {
	_, c := graph.Components(a)
	return c
}

// Deviator evaluates candidate strategies for one player without
// rebuilding the graph: the fixed part of the adjacency (everything except
// u's owned arcs) and the component structure of G - u are computed once,
// after which each candidate strategy costs a single BFS — or, once
// EnsureCache has built the distance cache (see distcache.go), a single
// O(n) min-merge over precomputed G-u distance rows. A Deviator is not
// safe for concurrent use; the parallel responders give each worker a
// clone sharing the immutable cache.
type Deviator struct {
	game  *Game
	u     int
	base  graph.Und // adjacency with u's owned arcs removed; nil on pool entries, which never take the BFS/Dijkstra paths
	in    []int     // owners of arcs into u (edges u keeps regardless)
	label []int     // component labels of G - u
	comps int       // component count of G - u
	seen  []bool    // scratch for CountComponentsTouched
	s     *graph.Scratch

	// Distance cache (inMin is nil until EnsureCache succeeds or a pool
	// adopts the Deviator; see distcache.go). Kernels read anchor v's row
	// of dist_{G-u} only through row(v). A plain Deviator holds the whole
	// matrix in rows (rows[v*n+w], InfDist if unreachable). A pool entry
	// holds in rows only the rows u's deletion damages, priv[v] indexing
	// them (-1: v's row is the pool's shared dist_G row, which equals
	// dist_{G-u} everywhere but column u).
	rows   []int32
	priv   []int32
	shared []int32
	inMin  []int32 // per-vertex min over the in(u) rows; inMin[u] = -1, so every merge reads column u as distance 0

	// Bitset level sets for the MAX eccentricity kernel (pool entries
	// only; see ensureLevels): lc holds the private rows' level sets,
	// indexed like rows — the shared rows' live in the pool — and inLv
	// the union of the in(u) anchors' level sets, seeded with u.
	lc   *graph.LevelCache
	inLv *graph.LevelUnion

	// Pool state (see pool.go). pool is non-nil while the Deviator is a
	// CachePool entry, in which case Release leaves its buffers to the
	// pool. stable counts consecutive acquisitions that staled at most
	// a quarter of the rows; a heavier sync zeroes it — the hysteresis
	// that keeps level sets and the SUM memo from churning in heavy-move
	// phases. dver is the pool's shared-matrix version the entry was last
	// synced to.
	pool   *CachePool
	stable int8
	dver   int64

	// Weighted cache mode (see wcache.go; nil wts = unweighted). Rows
	// hold raw weighted distances; the kernels add woff[v] = w(u,v) - 1
	// as row v enters a merge. wgen is the weights generation woff is
	// synced to, cinf the disconnection penalty (n²·maxW; n² when
	// unweighted, so unit weights reduce exactly to the BFS engine).
	wts  *graph.Weights
	woff []int32
	wgen int64
	wes  *graph.WEvalScratch
	cinf int64

	// SUM evaluation kernel state (see sumkernel.go). sumSufT holds the
	// per-scan tiered suffix-bound scratch and sumSufIn the inMin-only
	// bound for EvalBounded.
	sumSufT  [][]int64
	sumSufIn []int64
	memo     *sumMemo // pooled greedy candidate-cost memo (SUM only)
}

// U returns the player this Deviator evaluates deviations for.
func (dv *Deviator) U() int { return dv.u }

// NewDeviator prepares deviation evaluation for player u in realization d.
func NewDeviator(g *Game, d *graph.Digraph, u int) *Deviator {
	base := d.UnderlyingWithout(u)
	label, comps := graph.ComponentsExcluding(base, u)
	return &Deviator{
		game:  g,
		u:     u,
		base:  base,
		in:    d.In(u),
		label: label,
		comps: comps,
		seen:  make([]bool, comps+1),
		s:     graph.NewScratch(d.N()),
		cinf:  g.Cinf(),
	}
}

// NewWeightedDeviator prepares weighted deviation evaluation for player
// u: distances are weighted shortest paths under wts and the
// disconnection penalty scales to n²·MaxW so it keeps dominating every
// finite weighted sum. With unit weights (MaxW == 1) every evaluation
// is bit-identical to NewDeviator's.
func NewWeightedDeviator(g *Game, d *graph.Digraph, u int, wts *graph.Weights) *Deviator {
	dv := NewDeviator(g, d, u)
	dv.weigh(wts)
	return dv
}

// weigh switches dv to evaluation under wts (nil: unweighted).
func (dv *Deviator) weigh(wts *graph.Weights) {
	if wts != nil {
		n := int64(dv.game.N())
		dv.wts = wts
		dv.wgen = wts.Gen()
		dv.cinf = n * n * int64(wts.MaxW())
	}
}

// Eval returns the cost player u would incur by playing strategy s
// (assumed valid: distinct vertices != u; size is the caller's concern
// since budgets fix it). With an active distance cache this is an O(n)
// min-merge over cached rows; otherwise one BFS. The two paths return
// bit-identical costs.
func (dv *Deviator) Eval(strategy []int) int64 {
	if dv.HasCache() {
		return dv.evalCached(strategy)
	}
	if dv.wts != nil {
		return dv.evalWeightedDijkstra(strategy)
	}
	r := dv.s.DeviationBFS(dv.base, dv.u, strategy, dv.in)
	kappa := 1
	if r.Reached != dv.game.N() {
		touched := graph.CountComponentsTouched(dv.label, dv.seen, dv.u, strategy, dv.in)
		kappa = dv.comps - touched + 1
	}
	return costFrom(dv.game.N(), dv.cinf, dv.game.Version, r, kappa)
}

// In returns the owners of arcs into u (fixed edges during deviation).
func (dv *Deviator) In() []int { return dv.in }
