package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// Best-response computation. Theorem 2.1 proves finding a best response is
// NP-hard in both versions (reductions from k-center and k-median), so the
// exact solver enumerates all C(n-1, b) strategies — exponential in the
// budget — while greedy and single-swap responders provide the polynomial
// heuristics used to drive large dynamics runs. All three responders run
// on the distance-cache deviation engine (distcache.go) when it fits
// DefaultCacheBudget, and fall back to per-candidate BFS otherwise; both
// paths produce identical results.

// BestResponse is the outcome of a best-response computation.
type BestResponse struct {
	Strategy []int // a cost-minimising strategy (sorted)
	Cost     int64 // its cost
	Current  int64 // cost of the strategy currently played in the graph
	Explored int64 // number of candidate strategies evaluated
}

// Improves reports whether the found strategy strictly beats the current one.
func (br BestResponse) Improves() bool { return br.Cost < br.Current }

// StrategySpaceSize returns C(n-1, b), the number of strategies of a
// player with budget b in an n-player game, saturating at math.MaxInt64.
func StrategySpaceSize(n, b int) int64 {
	if b < 0 || b > n-1 {
		return 0
	}
	if b > (n-1)/2 {
		b = n - 1 - b
	}
	res := uint64(1)
	for i := 1; i <= b; i++ {
		// res * (n-1-b+i) / i is exactly C(n-1-b+i, i) at every step, so
		// the division is always integral; the product is carried in 128
		// bits because it can transiently exceed 64 bits even when the
		// final coefficient fits.
		f := uint64(n - 1 - b + i)
		hi, lo := bits.Mul64(res, f)
		if hi >= uint64(i) {
			return math.MaxInt64 // quotient would not fit in 64 bits
		}
		q, _ := bits.Div64(hi, lo, uint64(i))
		if q > math.MaxInt64 {
			return math.MaxInt64
		}
		res = q
	}
	return int64(res)
}

// GreedyBestResponse builds a strategy for u by b rounds of marginal-cost
// minimisation: each round adds the target whose addition yields the
// lowest cost given the targets chosen so far. This is the classic greedy
// for the k-median/k-center flavoured subproblem; it is not optimal
// (Theorem 2.1 forbids that in polynomial time unless P=NP) but is a
// strong responder for dynamics at scale. Ties break toward lower vertex
// ids for determinism.
//
// With the distance cache the greedy is incremental: a running min-vector
// over the chosen anchors makes each candidate's marginal cost one fused
// O(n) min+sum pass, so a full greedy run costs the parallel cache fill
// plus O(n·b·n) merges instead of O(n·b) BFS traversals.
func (g *Game) GreedyBestResponse(d *graph.Digraph, u int) BestResponse {
	dv := NewDeviator(g, d, u)
	defer dv.release()
	dv.EnsureCache(DefaultCacheBudget)
	return g.greedyOn(dv, d)
}

// greedyOn runs the greedy rounds on a prepared Deviator (cached or
// not; possibly pooled). All paths produce identical responses.
func (g *Game) greedyOn(dv *Deviator, d *graph.Digraph) BestResponse {
	u := dv.u
	cur := append([]int(nil), d.Out(u)...)
	res := BestResponse{Current: dv.Eval(cur)}

	b := g.Budgets[u]
	var chosen []int
	switch {
	case dv.useLevels():
		chosen = greedyLevels(dv, b, &res)
	case dv.HasCache():
		chosen = greedyCached(dv, b, cur, &res)
	default:
		chosen = greedyBFS(dv, b, &res)
	}
	res.Strategy = chosen
	res.Cost = dv.Eval(chosen)
	if res.Cost >= res.Current {
		// Greedy found nothing better; keep the current strategy so that
		// greedy dynamics are monotone and terminate at greedy-stable
		// profiles.
		res.Strategy = cur
		res.Cost = res.Current
	}
	return res
}

// eccResult converts the farthest covered anchor distance k and the
// covered count — from a level union or from graph.MaxMerge — into the
// BFS aggregates the MAX cost consumes: anchor distances are one hop
// from the source, the count includes the source (vec[u] = -1, or the
// union seeded with u), and a source that covers only itself is
// isolated (eccentricity 0).
func eccResult(k int32, covered int) graph.BFSResult {
	r := graph.BFSResult{Ecc: k + 1, Reached: covered}
	if covered <= 1 {
		r.Ecc = 0
	}
	return r
}

// greedyLevels is the MAX-version greedy on the bitset eccentricity
// kernel: the running state is the level-set union of the chosen
// anchors, and each candidate costs O(log(diam) · n/64) words instead
// of an n-entry row scan.
func greedyLevels(dv *Deviator, b int, res *BestResponse) []int {
	dv.ensureLevels()
	n := dv.game.N()
	lu := graph.NewLevelUnion(n)
	lu.CopyFrom(dv.inLv)
	reach := dv.newTouched()
	chosen := make([]int, 0, b)
	inChosen := make([]bool, n)
	for round := 0; round < b; round++ {
		bestV, bestC := -1, int64(math.MaxInt64)
		for v := 0; v < n; v++ {
			if v == dv.u || inChosen[v] {
				continue
			}
			res.Explored++
			lc, src := dv.levelsOf(v)
			k, cov := lu.AggregateWith(lc, src)
			if c := dv.costOf(eccResult(k, cov), reach.with(v)); c < bestC {
				bestC = c
				bestV = v
			}
		}
		if bestV < 0 {
			// Degenerate budget (b >= n-1): every target is already
			// chosen, so the full target set is the strategy.
			break
		}
		chosen = append(chosen, bestV)
		inChosen[bestV] = true
		reach.mark(bestV)
		lu.Merge(dv.levelsOf(bestV))
	}
	return chosen
}

// greedyCached runs the marginal-cost rounds on the distance cache,
// keeping the running min-vector of the chosen anchor set. cur (the
// currently played targets) seeds the SUM pruning budget.
func greedyCached(dv *Deviator, b int, cur []int, res *BestResponse) []int {
	n := dv.game.N()
	vec := getInt32(n)
	defer putInt32(vec)
	copy(vec, dv.inMin)
	reach := dv.newTouched()
	chosen := make([]int, 0, b)
	inChosen := make([]bool, n)
	prune := dv.sumPruneScan()
	var memo *sumMemo
	if prune {
		// Pool-owned Deviators persist across movers and rounds, so their
		// candidate costs are worth remembering: each pool sync keeps the
		// memo exact (see sumkernel.go), and a settled scan is then mostly
		// memo reads.
		if dv.memo == nil || len(dv.memo.rounds) != b {
			dv.memo = newSumMemo(b, n)
		}
		memo = dv.memo
	}
	for round := 0; round < b; round++ {
		bestV, bestC := -1, int64(math.MaxInt64)
		if prune {
			// SUM pruning round: memoised candidates cost one read; the
			// rest run the bounded kernel against the running incumbent.
			// The budget is seeded with the currently played targets —
			// near convergence they are (close to) optimal, so even the
			// first candidates scan against a tight bound. Pruned
			// candidates are certified strictly worse than an evaluated
			// one, so the winner and the lowest-id tie break are identical
			// to the unpruned scan, and Explored still counts them.
			var mr *sumMemoRound
			if memo != nil {
				mr = &memo.rounds[round]
			}
			filled := false
			eval := func(v int, budget int64) (int64, bool) {
				if mr != nil {
					switch c := mr.costs[v]; {
					case c >= 0:
						return c, false
					case c != memoStale && memoBoundOf(c) >= budget:
						// Certified cost > stored bound >= budget: re-prune
						// without touching the row.
						return 0, true
					}
				}
				if !filled {
					dv.fillSumBounds(vec)
					filled = true
				}
				c, p := dv.sumEvalBounded(vec, v, dv.sufFor(vec, v), budget)
				if mr != nil {
					if p {
						mr.costs[v] = memoBound(budget)
					} else {
						mr.costs[v] = c
					}
				}
				return c, p
			}
			budget := int64(math.MaxInt64)
			for _, v := range cur {
				if v == dv.u || v < 0 || v >= n || inChosen[v] {
					continue
				}
				if c, p := eval(v, budget); !p && c < budget {
					budget = c
				}
			}
			for v := 0; v < n; v++ {
				if v == dv.u || inChosen[v] {
					continue
				}
				res.Explored++
				c, p := eval(v, budget)
				if p {
					continue
				}
				if c < bestC {
					bestC = c
					bestV = v
				}
				if c < budget {
					budget = c
				}
			}
			if mr != nil && mr.chosen != bestV {
				// A different winner invalidates every later round's
				// running-min vector.
				memo.clearFrom(round + 1)
				mr.chosen = bestV
			}
		} else {
			for v := 0; v < n; v++ {
				if v == dv.u || inChosen[v] {
					continue
				}
				res.Explored++
				if c := dv.costOf(dv.aggregate(vec, v), reach.with(v)); c < bestC {
					bestC = c
					bestV = v
				}
			}
		}
		if bestV < 0 {
			// Degenerate budget (b >= n-1): every target is already
			// chosen, so the full target set is the strategy.
			break
		}
		chosen = append(chosen, bestV)
		inChosen[bestV] = true
		reach.mark(bestV)
		dv.mergeRow(vec, bestV)
	}
	return chosen
}

// greedyBFS is the cache-less fallback: one BFS per candidate.
func greedyBFS(dv *Deviator, b int, res *BestResponse) []int {
	n := dv.game.N()
	chosen := make([]int, 0, b)
	inChosen := make([]bool, n)
	for round := 0; round < b; round++ {
		bestV, bestC := -1, int64(math.MaxInt64)
		for v := 0; v < n; v++ {
			if v == dv.u || inChosen[v] {
				continue
			}
			res.Explored++
			if c := dv.Eval(append(chosen, v)); c < bestC {
				bestC = c
				bestV = v
			}
		}
		if bestV < 0 {
			// Degenerate budget (b >= n-1): every target is already
			// chosen, so the full target set is the strategy.
			break
		}
		chosen = append(chosen, bestV)
		inChosen[bestV] = true
	}
	return chosen
}

// BestSwap finds the best single-arc swap for u: replace one owned arc
// u->v with u->w (w neither u nor an existing target). This mirrors the
// "swap equilibrium" relaxation of Alon et al. adopted in Section 6's weak
// equilibria, and is the cheapest responder for dynamics. Returns the
// strategy after the best improving swap; if no swap improves, Strategy is
// the current one.
//
// With the distance cache each arc slot builds a leave-one-out min-vector
// once, after which every replacement target costs one O(n) pass.
func (g *Game) BestSwap(d *graph.Digraph, u int) BestResponse {
	dv := NewDeviator(g, d, u)
	defer dv.release()
	dv.EnsureCache(DefaultCacheBudget)
	return g.swapOn(dv, d)
}

// swapOn runs the swap scan on a prepared Deviator (cached or not;
// possibly pooled). All paths produce identical responses.
func (g *Game) swapOn(dv *Deviator, d *graph.Digraph) BestResponse {
	n := g.N()
	u := dv.u
	cur := append([]int(nil), d.Out(u)...)
	res := BestResponse{Strategy: cur, Current: dv.Eval(cur)}
	res.Cost = res.Current

	have := make([]bool, n)
	for _, v := range cur {
		have[v] = true
	}
	trial := make([]int, len(cur))
	if dv.useLevels() {
		// Bitset eccentricity kernel: each arc slot builds a leave-one-out
		// level union once, then every replacement target is one
		// O(log(diam) · n/64) probe.
		dv.ensureLevels()
		lu := graph.NewLevelUnion(n)
		reach := dv.newTouched()
		for i := range cur {
			copy(trial, cur)
			lu.CopyFrom(dv.inLv)
			if i > 0 {
				reach.reset()
			}
			for j, v := range cur {
				if j != i {
					lu.Merge(dv.levelsOf(v))
					reach.mark(v)
				}
			}
			for w := 0; w < n; w++ {
				if w == u || have[w] {
					continue
				}
				trial[i] = w
				res.Explored++
				lc, src := dv.levelsOf(w)
				k, cov := lu.AggregateWith(lc, src)
				if c := dv.costOf(eccResult(k, cov), reach.with(w)); c < res.Cost {
					res.Cost = c
					res.Strategy = append([]int(nil), trial...)
				}
			}
		}
		return res
	}
	if dv.sumPruneScan() {
		// SUM pruning scan: the leave-one-out min-vector of each arc slot
		// gets its own suffix bound, and every replacement target runs the
		// bounded kernel against the incumbent best (already tight from
		// the start: res.Cost is the currently played cost). SUM ignores
		// the component count, so no touched tracker is needed.
		vec := getInt32(n)
		defer putInt32(vec)
		for i := range cur {
			copy(trial, cur)
			copy(vec, dv.inMin)
			for j, v := range cur {
				if j != i {
					dv.mergeRow(vec, v)
				}
			}
			dv.fillSumBounds(vec)
			for w := 0; w < n; w++ {
				if w == u || have[w] {
					continue
				}
				trial[i] = w
				res.Explored++
				c, pruned := dv.sumEvalBounded(vec, w, dv.sufFor(vec, w), res.Cost)
				if pruned {
					continue
				}
				if c < res.Cost {
					res.Cost = c
					res.Strategy = append([]int(nil), trial...)
				}
			}
		}
		return res
	}
	if dv.HasCache() {
		vec := getInt32(n)
		defer putInt32(vec)
		reach := dv.newTouched()
		for i := range cur {
			copy(trial, cur)
			// Leave-one-out anchors: in(u) and every kept arc.
			copy(vec, dv.inMin)
			if i > 0 {
				reach.reset()
			}
			for j, v := range cur {
				if j != i {
					dv.mergeRow(vec, v)
					reach.mark(v)
				}
			}
			for w := 0; w < n; w++ {
				if w == u || have[w] {
					continue
				}
				trial[i] = w
				res.Explored++
				if c := dv.costOf(dv.aggregate(vec, w), reach.with(w)); c < res.Cost {
					res.Cost = c
					res.Strategy = append([]int(nil), trial...)
				}
			}
		}
		return res
	}
	for i := range cur {
		copy(trial, cur)
		for w := 0; w < n; w++ {
			if w == u || have[w] {
				continue
			}
			trial[i] = w
			res.Explored++
			if c := dv.Eval(trial); c < res.Cost {
				res.Cost = c
				res.Strategy = append([]int(nil), trial...)
			}
		}
	}
	return res
}

// Responder computes a (possibly heuristic) response for a player; the
// dynamics engine is parameterised over this type. The built-in responders
// are safe for concurrent invocation on distinct players against a fixed
// graph, which perfbench's converge check relies on: it re-verifies each
// equilibrium by calling the plain responder from sweep.ParallelN.
type Responder func(g *Game, d *graph.Digraph, u int) BestResponse

// DeviatorResponder is the pooled form of a Responder: it evaluates on a
// Deviator prepared by the caller — in the dynamics engines, a
// CachePool-owned Deviator whose distance cache survives (synced, not
// refilled) across movers and rounds. A DeviatorResponder must compute
// exactly the response its plain counterpart computes; every built-in
// pair here does, which the equivalence suites pin.
type DeviatorResponder func(g *Game, d *graph.Digraph, dv *Deviator) BestResponse

// ExactResponder enumerates the full strategy space (panics if it exceeds
// maxCandidates; use in controlled sweeps only).
func ExactResponder(maxCandidates int64) Responder {
	return func(g *Game, d *graph.Digraph, u int) BestResponse {
		br, err := g.ExactBestResponse(d, u, maxCandidates)
		if err != nil {
			panic(err)
		}
		return br
	}
}

// GreedyResponder is the marginal-cost greedy heuristic.
func GreedyResponder(g *Game, d *graph.Digraph, u int) BestResponse {
	return g.GreedyBestResponse(d, u)
}

// SwapResponder performs the best single-arc swap.
func SwapResponder(g *Game, d *graph.Digraph, u int) BestResponse {
	return g.BestSwap(d, u)
}

// ExactDeviatorResponder is the pooled counterpart of ExactResponder.
func ExactDeviatorResponder(maxCandidates int64) DeviatorResponder {
	return func(g *Game, d *graph.Digraph, dv *Deviator) BestResponse {
		n, b := g.N(), g.Budgets[dv.u]
		space := StrategySpaceSize(n, b)
		if maxCandidates > 0 && space > maxCandidates {
			panic(fmt.Errorf("core: strategy space C(%d,%d) = %d exceeds budget %d candidates",
				n-1, b, space, maxCandidates))
		}
		if !dv.HasCache() && space >= int64(n) {
			dv.EnsureCache(DefaultCacheBudget)
		}
		return g.exactOn(dv, d)
	}
}

// GreedyDeviatorResponder is the pooled counterpart of GreedyResponder.
func GreedyDeviatorResponder(g *Game, d *graph.Digraph, dv *Deviator) BestResponse {
	if !dv.HasCache() {
		dv.EnsureCache(DefaultCacheBudget)
	}
	return g.greedyOn(dv, d)
}

// SwapDeviatorResponder is the pooled counterpart of SwapResponder.
func SwapDeviatorResponder(g *Game, d *graph.Digraph, dv *Deviator) BestResponse {
	if !dv.HasCache() {
		dv.EnsureCache(DefaultCacheBudget)
	}
	return g.swapOn(dv, d)
}
