// Package dynamics runs (best-)response dynamics for bounded budget
// network creation games: starting from a profile, players revise their
// strategies one at a time until a fixed point (a Nash equilibrium when
// the responder is exact), a detected cycle of profiles, or a round
// budget is exhausted. Section 8 of the paper leaves convergence of these
// dynamics open — Laoutaris et al. exhibited loops in the directed
// variant — so the engine detects loops exactly via profile hashing with
// full-profile confirmation, and the harness reports convergence
// statistics as an empirical answer.
package dynamics

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// Scheduler yields the order in which players move in one round.
type Scheduler interface {
	// Order fills dst with a permutation of 0..n-1 for the given round.
	Order(dst []int, round int)
	Name() string
}

// RoundRobin moves players in index order every round.
type RoundRobin struct{}

// Order fills dst with the identity permutation.
func (RoundRobin) Order(dst []int, round int) {
	for i := range dst {
		dst[i] = i
	}
}

// Name identifies the scheduler in reports.
func (RoundRobin) Name() string { return "round-robin" }

// RandomOrder shuffles the player order independently each round.
type RandomOrder struct{ Rng *rand.Rand }

// Order fills dst with a fresh random permutation.
func (s RandomOrder) Order(dst []int, round int) {
	for i := range dst {
		dst[i] = i
	}
	s.Rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Name identifies the scheduler in reports.
func (s RandomOrder) Name() string { return "random-order" }

// Options configure a dynamics run.
type Options struct {
	Responder core.Responder // required
	Scheduler Scheduler      // defaults to RoundRobin
	MaxRounds int            // defaults to 1000
	// RecordTrajectory stores the social cost (diameter) after every
	// round in Result.Trajectory.
	RecordTrajectory bool
	// DetectLoops tracks visited profiles and stops when one repeats.
	// Hash hits are confirmed against the stored profile, so a reported
	// loop is exact, never a collision artefact.
	DetectLoops bool
	// Parallel evaluates responders on a worker pool. Results are
	// identical to the sequential engine: sequential rounds precompute
	// every player's response against the round-start profile in
	// parallel and revalidate sequentially once a move lands
	// (speculation pays off because converging runs spend most rounds
	// with few or no moves); simultaneous rounds are embarrassingly
	// parallel by definition. Requires the Responder to be safe for
	// concurrent invocation against a fixed graph — all responders in
	// package core are.
	Parallel bool
	// Cached is the pooled (Deviator) form of Responder. When set the
	// engine keeps one cached Deviator per player in a core.CachePool for
	// the whole run: after each accepted move the pool is invalidated and
	// each player's dist_{G-u} matrix is lazily *repaired* (delta BFS
	// over the edges the movers actually changed) on its next use instead
	// of refilled from scratch, which removes the dominant
	// O(n²)-fill-per-mover cost of cached dynamics. Cached must compute
	// exactly the same response as Responder; the built-in core pairs do,
	// pinned by tests against the uncached reference (Cached nil with
	// core.DefaultCacheBudget 0: per-candidate BFS or Dijkstra). Results
	// are identical with and without it.
	Cached core.DeviatorResponder
	// PoolBudget caps the cache pool size in bytes; 0 means
	// core.DefaultPoolBudget.
	PoolBudget int64
	// Pool supplies an external cache pool that survives across engine
	// calls (it is not Closed by the run); the caller owns its lifetime
	// and must have built it for the same game. When nil — the normal
	// case — the engine creates a pool per run. Useful to amortise
	// warm caches over many short runs of the same instance.
	Pool *core.CachePool
	// Weights runs the dynamics under arc weights (graph.Weights): the
	// run-owned pool becomes a weighted pool whose entries evaluate
	// weighted shortest-path costs, and the recorded trajectory is the
	// weighted social cost. The caller must supply matching weighted
	// responders (core.WeightedGreedyResponder(Weights), ...) as
	// Responder; Cached needs no weighted variant, since the pool hands
	// it weighted Deviators. An external Pool must have been built by
	// core.NewWeightedCachePool over the same weights.
	Weights *graph.Weights
}

// newPool resolves the run's cache pool: nil without a Cached
// responder, the caller's external pool when supplied, else a fresh
// run-owned pool. owned reports whether the run must Close it.
func (opts Options) newPool(g *core.Game) (pool *core.CachePool, owned bool) {
	if opts.Cached == nil {
		return nil, false
	}
	if opts.Pool != nil {
		return opts.Pool, false
	}
	return core.NewWeightedCachePool(g, opts.PoolBudget, opts.Weights), true
}

// socialCost is the trajectory metric of a run: weighted diameter when
// the run carries arc weights, plain diameter otherwise.
func (opts Options) socialCost(g *core.Game, d *graph.Digraph) int64 {
	if opts.Weights != nil {
		return g.WeightedSocialCost(d, opts.Weights)
	}
	return g.SocialCost(d)
}

// respondWith returns the per-player response function of a run: the
// pooled path (acquire → evaluate on the repaired cache → unpin) when
// pool is live, the plain Responder otherwise. next names the predicted
// next mover (-1 for none): while u's scan runs, the pool speculatively
// resyncs next's entry on a spare core. On the pooled path the
// round-level memo short-circuits the whole scan when the graph is
// anchored exactly where it was the last time u answered "no improving
// move" (the skip returns the zero BestResponse, which does not
// improve — the answer the scan would reproduce).
func respondWith(g *core.Game, pool *core.CachePool, opts Options) func(d *graph.Digraph, u, next int) core.BestResponse {
	if pool == nil {
		return func(d *graph.Digraph, u, _ int) core.BestResponse {
			return opts.Responder(g, d, u)
		}
	}
	return func(d *graph.Digraph, u, next int) core.BestResponse {
		if pool.SkipResponse(d, u) {
			return core.BestResponse{}
		}
		dv := pool.Acquire(d, u)
		var wait func()
		if next >= 0 {
			wait = pool.Prefetch(d, next)
		}
		br := opts.Cached(g, d, dv)
		dv.Release()
		if wait != nil {
			wait()
		}
		pool.NoteResponse(d, u, br.Improves())
		return br
	}
}

// Result summarises a dynamics run.
type Result struct {
	Converged  bool // a full round passed with no strategy change
	Loop       bool // an earlier profile recurred (only if DetectLoops)
	LoopLength int  // rounds between the repeats, when Loop
	Rounds     int  // full rounds executed
	Moves      int  // strategy changes applied
	Final      *graph.Digraph
	Trajectory []int64 // social cost after each round (if recorded)
}

// Run executes response dynamics for game g from the initial realization
// start (which is not modified). If the responder is exact, a converged
// final graph is a Nash equilibrium of g.
func Run(g *core.Game, start *graph.Digraph, opts Options) (Result, error) {
	if err := g.CheckRealization(start); err != nil {
		return Result{}, err
	}
	if opts.Responder == nil {
		return Result{}, fmt.Errorf("dynamics: Options.Responder is required")
	}
	if opts.Scheduler == nil {
		opts.Scheduler = RoundRobin{}
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1000
	}
	d := start.Clone()
	n := g.N()
	order := make([]int, n)
	res := Result{}
	pool, ownedPool := opts.newPool(g)
	if ownedPool {
		defer pool.Close()
	} else {
		// An external pool may have been repaired toward some other
		// graph since its last use here; force the first acquisition of
		// every entry to re-diff against this run's start (a no-op diff
		// or stamp skip when nothing actually changed), and drop the
		// response memo, which a different responder may have recorded.
		pool.Invalidate()
		pool.ResetResponseMemo()
	}
	startJournal(d, pool)
	respond := respondWith(g, pool, opts)
	par := opts.Parallel && runtime.GOMAXPROCS(0) > 1
	var seen map[uint64][]seenProfile
	if opts.DetectLoops {
		seen = make(map[uint64][]seenProfile)
		recordProfile(seen, core.ProfileOf(d), 0)
	}
	for round := 1; round <= opts.MaxRounds; round++ {
		opts.Scheduler.Order(order, round)
		changed := false
		var speculative []core.BestResponse
		if par {
			// Speculation only pays when the precompute actually runs on
			// spare cores; on one core it would double the work of every
			// round that contains a move.
			if pool != nil {
				speculative = pooledResponsesAgainst(g, d, order, pool, opts.Cached)
			} else {
				speculative = responsesAgainst(g, d, order, opts.Responder)
			}
		}
		for idx, u := range order {
			if g.Budgets[u] == 0 {
				continue
			}
			var br core.BestResponse
			if speculative != nil && !changed {
				// No move has landed this round, so the response
				// precomputed against the round-start profile is exact.
				br = speculative[idx]
			} else {
				// Either no speculation ran or a move landed: the pooled
				// path re-acquires the player's cache, repairing it
				// against the winners' deltas — and, on the parallel
				// path, overlaps the predicted next mover's resync with
				// this player's scan.
				next := -1
				if par && pool != nil {
					next = nextEligible(g, order, idx+1)
				}
				br = respond(d, u, next)
			}
			if br.Improves() {
				d.SetOut(u, br.Strategy)
				pool.Invalidate()
				res.Moves++
				changed = true
			}
		}
		res.Rounds = round
		if opts.RecordTrajectory {
			res.Trajectory = append(res.Trajectory, opts.socialCost(g, d))
		}
		if !changed {
			res.Converged = true
			break
		}
		if opts.DetectLoops {
			p := core.ProfileOf(d)
			if prev, ok := lookupProfile(seen, p); ok {
				res.Loop = true
				res.LoopLength = round - prev
				break
			}
			recordProfile(seen, p, round)
		}
	}
	res.Final = d
	return res, nil
}

// startJournal attaches a bounded mutation journal to the run graph so
// a live pool can repair stale entries from the exact edge deltas of
// the accepted moves instead of a full adjacency diff. The bound covers
// several rounds of typical move churn; overflow just falls back to the
// diff path.
func startJournal(d *graph.Digraph, pool *core.CachePool) {
	if pool != nil {
		d.StartJournal(4*d.N() + 64)
	}
}

// nextEligible returns the first player at or after index i in order
// with a positive budget, or -1.
func nextEligible(g *core.Game, order []int, i int) int {
	for ; i < len(order); i++ {
		if g.Budgets[order[i]] != 0 {
			return order[i]
		}
	}
	return -1
}

// responsesAgainst computes every listed player's response against the
// current (fixed) profile on a worker pool; entries for budget-0 players
// are zero values. The graph is only read during the map, so the
// concurrent invocations satisfy the Responder contract.
//
// The pool is bounded so that the distance caches of concurrently running
// responders stay within core.DefaultCacheBudget in aggregate — each
// cached responder holds a 4·n·(n+1)-byte matrix, so an unbounded
// GOMAXPROCS fan-out would multiply the budget by the worker count.
func responsesAgainst(g *core.Game, d *graph.Digraph, players []int, respond core.Responder) []core.BestResponse {
	return sweep.ParallelN(players, responseWorkers(g), func(u int) core.BestResponse {
		if g.Budgets[u] == 0 {
			return core.BestResponse{}
		}
		return respond(g, d, u)
	})
}

// pooledResponsesAgainst is the speculative map over a live cache pool:
// every player's entry is acquired (and repaired) serially — the pool is
// single-goroutine — then the responders run on the worker pool, each on
// its own pinned Deviator, and the entries are unpinned afterwards.
func pooledResponsesAgainst(g *core.Game, d *graph.Digraph, players []int, pool *core.CachePool, respond core.DeviatorResponder) []core.BestResponse {
	dvs := make([]*core.Deviator, len(players))
	for i, u := range players {
		if g.Budgets[u] == 0 {
			continue
		}
		if pool.SkipResponse(d, u) {
			// Round memo: u's previous "no improving move" answer is
			// still exact; the zero response below reproduces it without
			// acquiring (or repairing) u's entry at all.
			continue
		}
		dvs[i] = pool.Acquire(d, u)
	}
	idx := make([]int, len(players))
	for i := range idx {
		idx[i] = i
	}
	brs := sweep.ParallelN(idx, responseWorkers(g), func(i int) core.BestResponse {
		if dvs[i] == nil {
			return core.BestResponse{}
		}
		br := respond(g, d, dvs[i])
		// Release inside the worker: a no-op for pool-owned entries, and
		// for over-budget players it recycles the matrix their responder
		// filled as soon as they finish, keeping the wave's live matrices
		// bounded by the worker count (the invariant responseWorkers is
		// sized around) instead of by the player count.
		dvs[i].Release()
		return br
	})
	for i, u := range players {
		if dvs[i] != nil && !brs[i].Improves() {
			pool.NoteResponse(d, u, false)
		}
	}
	return brs
}

// responseWorkers bounds the speculative fan-out so that the distance
// caches of concurrently running responders stay within
// core.DefaultCacheBudget in aggregate (pool-owned matrices are
// preallocated, but unpooled players still fill their own).
func responseWorkers(g *core.Game) int {
	workers := runtime.GOMAXPROCS(0)
	if budget := core.DefaultCacheBudget; budget > 0 {
		n := int64(g.N())
		if perCache := 4 * n * (n + 1); perCache > 0 {
			if byMem := int(budget / perCache); byMem < workers {
				workers = byMem
			}
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

type seenProfile struct {
	p     core.Profile
	round int
}

func recordProfile(seen map[uint64][]seenProfile, p core.Profile, round int) {
	h := p.Hash()
	seen[h] = append(seen[h], seenProfile{p: p, round: round})
}

func lookupProfile(seen map[uint64][]seenProfile, p core.Profile) (round int, ok bool) {
	for _, sp := range seen[p.Hash()] {
		if sp.p.Equal(p) {
			return sp.round, true
		}
	}
	return 0, false
}

// RandomProfile realizes a uniformly random valid profile of g.
func RandomProfile(g *core.Game, rng *rand.Rand) *graph.Digraph {
	return graph.RandomOutDigraph(g.Budgets, rng)
}

// RunFromRandom is a convenience wrapper: random initial profile, then Run.
func RunFromRandom(g *core.Game, rng *rand.Rand, opts Options) (Result, error) {
	return Run(g, RandomProfile(g, rng), opts)
}
