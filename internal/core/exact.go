package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Exact best response: full C(n-1, b) strategy enumeration. Large spaces
// are sharded across a worker pool by first combination element, each
// worker owning private scratch (per the Scratch concurrency contract)
// and a stack of partial min-vectors over the shared distance cache, so a
// leaf evaluation costs one O(n) pass instead of a BFS. Results are
// deterministic and identical to sequential enumeration: the minimiser
// with ties broken toward the currently played strategy, then toward the
// lexicographically smallest strategy (= enumeration order).

// exactParallelMinSpace is the strategy-space size beyond which
// ExactBestResponse shards enumeration across workers; below it the
// goroutine fan-out costs more than it saves. Variable so tests can force
// the parallel path on small instances.
var exactParallelMinSpace int64 = 2048

// ExactBestResponse enumerates every strategy of player u in realization d
// and returns a minimiser. maxCandidates bounds the enumeration (0 means
// no bound); if the strategy space exceeds it an error is returned, since
// a truncated enumeration would not be a best response.
//
// Ties are broken in favour of the currently played strategy (so a vertex
// already playing optimally reports its own strategy), then
// lexicographically by the enumeration order.
func (g *Game) ExactBestResponse(d *graph.Digraph, u int, maxCandidates int64) (BestResponse, error) {
	n := g.N()
	b := g.Budgets[u]
	space := StrategySpaceSize(n, b)
	if maxCandidates > 0 && space > maxCandidates {
		return BestResponse{}, fmt.Errorf("core: strategy space C(%d,%d) = %d exceeds budget %d candidates",
			n-1, b, space, maxCandidates)
	}
	dv := NewDeviator(g, d, u)
	defer dv.release()
	if space >= int64(n) {
		// The cache fill costs n BFS; below n evaluations it cannot pay
		// for itself.
		dv.EnsureCache(DefaultCacheBudget)
	}
	return g.exactOn(dv, d), nil
}

// exactOn enumerates on a prepared Deviator (cached or not; possibly
// pooled). Results — minimiser, tie-breaking, explored count — are
// identical on every path.
func (g *Game) exactOn(dv *Deviator, d *graph.Digraph) BestResponse {
	n := g.N()
	u := dv.u
	b := g.Budgets[u]
	space := StrategySpaceSize(n, b)
	cur := append([]int(nil), d.Out(u)...)
	best := BestResponse{Strategy: cur, Current: dv.Eval(cur)}
	best.Cost = best.Current

	targets := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			targets = append(targets, v)
		}
	}
	if b == 0 {
		best.Explored = 1 // the single empty strategy, already played
		return best
	}
	if b > len(targets) {
		return best // degenerate budget: no strategy of size b exists
	}
	firsts := len(targets) - b + 1
	workers := runtime.GOMAXPROCS(0)
	if workers > firsts {
		workers = firsts
	}
	if space < exactParallelMinSpace || workers <= 1 {
		e := newExactLocal(dv, targets, b, best.Current)
		for i0 := 0; i0 < firsts; i0++ {
			e.run(i0)
		}
		mergeExact(&best, e)
		return best
	}
	locals := make([]*exactLocal, workers)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			e := newExactLocal(dv.clone(), targets, b, best.Current)
			locals[w] = e
			for {
				i0 := int(atomic.AddInt64(&next, 1)) - 1
				if i0 >= firsts {
					return
				}
				e.run(i0)
			}
		}(w)
	}
	wg.Wait()
	mergeExact(&best, locals...)
	return best
}

// exactLocal is one enumeration worker: a combination walker with a stack
// of partial min-vectors (cached path) or a strategy buffer fed to BFS
// evaluation (fallback path), plus the worker-local minimum.
type exactLocal struct {
	dv       *Deviator
	targets  []int
	b        int
	cached   bool
	prune    bool      // SUM bounded-kernel leaves (see sumkernel.go)
	suf      []int64   // leaf pruning bound: suffix sums against inMin
	strategy []int     // combination prefix as vertex ids
	vecs     [][]int32 // vecs[k]: min-vector of in(u) + first k chosen anchors; vecs[0] aliases inMin
	reach    *touched  // component labels touched by in(u) + prefix
	marks    []int     // label newly marked at depth k, or -1
	explored int64
	bestCost int64
	bestStr  []int // nil while nothing beats the current strategy
}

func newExactLocal(dv *Deviator, targets []int, b int, current int64) *exactLocal {
	e := &exactLocal{
		dv:       dv,
		targets:  targets,
		b:        b,
		cached:   dv.HasCache(),
		strategy: make([]int, b),
		marks:    make([]int, b),
		bestCost: current,
	}
	if e.cached {
		n := dv.game.N()
		e.vecs = make([][]int32, b)
		e.vecs[0] = dv.inMin
		for k := 1; k < b; k++ {
			e.vecs[k] = getInt32(n)
		}
		e.reach = dv.newTouched()
		if dv.sumPrune() {
			// The inMin suffix bound is valid for every leaf: each
			// partial min-vector only shrinks entries below inMin, never
			// below min(inMin, 0). It is worker-local scratch.
			e.prune = true
			e.suf = dv.inMinSuffix()
		}
	}
	return e
}

// run enumerates every combination whose first element is targets[i0].
func (e *exactLocal) run(i0 int) {
	if e.b == 1 {
		e.leaf(e.targets[i0])
		return
	}
	e.push(0, e.targets[i0])
	e.rec(i0+1, 1)
	e.pop(0)
}

func (e *exactLocal) rec(start, k int) {
	if k == e.b-1 {
		for i := start; i < len(e.targets); i++ {
			e.leaf(e.targets[i])
		}
		return
	}
	for i := start; i <= len(e.targets)-(e.b-k); i++ {
		e.push(k, e.targets[i])
		e.rec(i+1, k+1)
		e.pop(k)
	}
}

func (e *exactLocal) push(k, t int) {
	e.strategy[k] = t
	if !e.cached {
		return
	}
	copy(e.vecs[k+1], e.vecs[k])
	e.dv.mergeRow(e.vecs[k+1], t)
	e.marks[k] = e.reach.mark(t)
}

func (e *exactLocal) pop(k int) {
	if e.cached {
		e.reach.unmark(e.marks[k])
	}
}

func (e *exactLocal) leaf(t int) {
	e.explored++
	e.strategy[e.b-1] = t
	var c int64
	switch {
	case e.prune:
		// The worker-local incumbent is the pruning budget: a pruned leaf
		// is certified strictly worse, so the kept minimiser (and the
		// lexicographic tie-breaking, which only ever compares strict
		// improvements) is identical to the full enumeration.
		var pruned bool
		c, pruned = e.dv.sumEvalBounded(e.vecs[e.b-1], t, e.suf, e.bestCost)
		if pruned {
			return
		}
	case e.cached:
		r := e.dv.aggregate(e.vecs[e.b-1], t)
		c = e.dv.costOf(r, e.reach.with(t))
	default:
		c = e.dv.Eval(e.strategy)
	}
	// Strict improvement only: within a worker enumeration is
	// lexicographically increasing, so the kept strategy is the
	// lexicographically first among the worker's minimisers.
	if c < e.bestCost {
		e.bestCost = c
		e.bestStr = append(e.bestStr[:0], e.strategy...)
	}
}

func (e *exactLocal) release() {
	for k := 1; k < len(e.vecs); k++ {
		putInt32(e.vecs[k])
	}
	e.vecs = nil
}

// mergeExact folds worker-local minima into best, preserving the
// sequential tie-breaking: the current strategy wins cost ties (a worker
// only reports strict improvements), and among equal-cost improvements
// the lexicographically smallest strategy wins.
func mergeExact(best *BestResponse, locals ...*exactLocal) {
	for _, e := range locals {
		if e == nil {
			continue
		}
		best.Explored += e.explored
		if e.bestStr != nil &&
			(e.bestCost < best.Cost ||
				(e.bestCost == best.Cost && best.Cost < best.Current && lexLess(e.bestStr, best.Strategy))) {
			best.Cost = e.bestCost
			best.Strategy = append([]int(nil), e.bestStr...)
		}
		e.release()
	}
}

// lexLess compares equal-length strategies lexicographically.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
