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

	"repro/internal/core"
	"repro/internal/graph"
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
	// Cached is the pooled (Deviator) form of Responder. When set the
	// engine keeps one cached Deviator per player in a core.CachePool for
	// the whole run: after each accepted move the pool is invalidated, its
	// shared distance matrix of the whole graph is *repaired* (delta BFS
	// over the edges the movers actually changed) and each player's
	// damaged rows of dist_{G-u} are refilled on its next use instead of
	// a whole matrix per player, which removes the dominant
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
	// and must have built it for the same game — the engines reject a
	// pool built for another game. When nil — the normal case — the
	// engine creates a pool per run. Useful to amortise warm caches over
	// many short runs of the same instance.
	Pool *core.CachePool
	// Weights runs the dynamics under arc weights (graph.Weights): the
	// run-owned pool becomes a weighted pool whose entries evaluate
	// weighted shortest-path costs, and the recorded trajectory and
	// welfare are the weighted social cost and total cost. The caller
	// must supply matching weighted responders
	// (core.WeightedGreedyResponder(Weights), ...) as Responder; Cached
	// needs no weighted variant, since the pool hands it weighted
	// Deviators. An external Pool must have been built by
	// core.NewWeightedCachePool over these same weights, and an
	// unweighted run rejects a weighted Pool.
	Weights *graph.Weights
}

// socialCost is the trajectory metric of a run: weighted diameter when
// the run carries arc weights, plain diameter otherwise.
func (opts Options) socialCost(g *core.Game, d *graph.Digraph) int64 {
	if opts.Weights != nil {
		return g.WeightedSocialCost(d, opts.Weights)
	}
	return g.SocialCost(d)
}

// welfare is the utilitarian welfare of d: the total player cost,
// weighted when the run carries arc weights.
func (opts Options) welfare(g *core.Game, d *graph.Digraph) int64 {
	var costs []int64
	if opts.Weights != nil {
		costs = g.WeightedAllCosts(d, opts.Weights)
	} else {
		costs = g.AllCosts(d)
	}
	var total int64
	for _, c := range costs {
		total += c
	}
	return total
}

// run is the state an engine call keeps across its rounds: the working
// copy of the start profile and the cache pool (nil without a Cached
// responder), which the run Closes only if it owns it.
type run struct {
	g     *core.Game
	d     *graph.Digraph
	opts  Options
	pool  *core.CachePool
	owned bool
}

// newRun is the prologue every engine shares. It validates start and
// the responder, clones start into the run graph and resolves the
// run's pool: the caller's external pool when supplied — rejected
// unless it was built for g over opts.Weights — else a fresh run-owned
// pool. The caller must defer end.
func newRun(g *core.Game, start *graph.Digraph, opts Options) (*run, error) {
	if err := g.CheckRealization(start); err != nil {
		return nil, err
	}
	if opts.Responder == nil {
		return nil, fmt.Errorf("dynamics: Options.Responder is required")
	}
	r := &run{g: g, d: start.Clone(), opts: opts}
	switch {
	case opts.Cached == nil:
		return r, nil
	case opts.Pool == nil:
		r.pool, r.owned = core.NewWeightedCachePool(g, opts.PoolBudget, opts.Weights), true
	case !opts.Pool.BuiltFor(g, opts.Weights):
		return nil, fmt.Errorf("dynamics: Options.Pool was built for another game or other weights")
	default:
		// An external pool may have been repaired toward some other
		// graph since its last use here; force the first acquisition of
		// every entry to re-diff against this run's start (a no-op diff
		// or stamp skip when nothing actually changed), and drop the
		// response memo, which a different responder may have recorded.
		r.pool = opts.Pool
		r.pool.Invalidate()
		r.pool.ResetResponseMemo()
	}
	// A bounded mutation journal lets the pool repair stale entries from
	// the exact edge deltas of the accepted moves instead of a full
	// adjacency diff. The bound covers several rounds of typical move
	// churn; overflow just falls back to the diff path.
	r.d.StartJournal(4*r.d.N() + 64)
	return r, nil
}

// end closes a run-owned pool; an external pool outlives the run.
func (r *run) end() {
	if r.owned {
		r.pool.Close()
	}
}

// respond returns player u's response against the run graph: the
// pooled path (acquire → evaluate on the repaired cache → unpin) when
// the run has a pool, the plain Responder otherwise. On the pooled path
// the round-level memo short-circuits the whole scan when the graph is
// anchored exactly where it was the last time u answered "no improving
// move" (the skip returns the zero BestResponse, which does not
// improve — the answer the scan would reproduce).
func (r *run) respond(u int) core.BestResponse {
	if r.pool == nil {
		return r.opts.Responder(r.g, r.d, u)
	}
	if r.pool.SkipResponse(r.d, u) {
		return core.BestResponse{}
	}
	dv := r.pool.Acquire(r.d, u)
	br := r.opts.Cached(r.g, r.d, dv)
	dv.Release()
	r.pool.NoteResponse(r.d, u, br.Improves())
	return br
}

// move rewires player u to strategy s and marks every pooled entry
// stale.
func (r *run) move(u int, s []int) {
	r.d.SetOut(u, s)
	r.pool.Invalidate()
}

// sequentialRound lets every player with a positive budget respond
// once, in order, each against the profile its predecessors left, and
// returns the number of moves accepted.
func (r *run) sequentialRound(order []int) int {
	moves := 0
	for _, u := range order {
		if r.g.Budgets[u] == 0 {
			continue
		}
		if br := r.respond(u); br.Improves() {
			r.move(u, br.Strategy)
			moves++
		}
	}
	return moves
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
	if opts.Scheduler == nil {
		opts.Scheduler = RoundRobin{}
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1000
	}
	r, err := newRun(g, start, opts)
	if err != nil {
		return Result{}, err
	}
	defer r.end()
	d := r.d
	order := make([]int, g.N())
	res := Result{}
	var seen map[uint64][]seenProfile
	if opts.DetectLoops {
		seen = make(map[uint64][]seenProfile)
		recordProfile(seen, core.ProfileOf(d), 0)
	}
	for round := 1; round <= opts.MaxRounds; round++ {
		opts.Scheduler.Order(order, round)
		moves := r.sequentialRound(order)
		res.Moves += moves
		res.Rounds = round
		if opts.RecordTrajectory {
			res.Trajectory = append(res.Trajectory, opts.socialCost(g, d))
		}
		if moves == 0 {
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
