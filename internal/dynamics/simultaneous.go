package dynamics

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Simultaneous-move dynamics: in each round every player computes a
// response against the *current* profile and all updates apply at once.
// Unlike the sequential engine, simultaneous moves are the classic
// source of oscillation in network formation (two players chasing the
// same position can swap forever), which makes this variant a sharper
// probe of the Section 8 convergence question: sequential dynamics
// converged in every experiment, while simultaneous dynamics visibly
// loop on small instances.

// RunSimultaneous executes simultaneous response dynamics. Loop
// detection is always on (simultaneous runs that do not converge
// almost always cycle).
func RunSimultaneous(g *core.Game, start *graph.Digraph, opts Options) (Result, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1000
	}
	r, err := newRun(g, start, opts)
	if err != nil {
		return Result{}, err
	}
	defer r.end()
	d := r.d
	n := g.N()
	res := Result{}
	seen := make(map[uint64][]seenProfile)
	recordProfile(seen, core.ProfileOf(d), 0)
	next := make([][]int, n)
	for round := 1; round <= opts.MaxRounds; round++ {
		changed := false
		for u := 0; u < n; u++ {
			next[u] = nil
			if g.Budgets[u] == 0 {
				continue
			}
			if br := r.respond(u); br.Improves() {
				next[u] = br.Strategy
			}
		}
		for u, s := range next {
			if s != nil {
				r.move(u, s)
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
		p := core.ProfileOf(d)
		if prev, ok := lookupProfile(seen, p); ok {
			res.Loop = true
			res.LoopLength = round - prev
			break
		}
		recordProfile(seen, p, round)
	}
	res.Final = d
	return res, nil
}

// WelfareTrace records the total player cost (the utilitarian welfare
// measure, distinct from the paper's diameter social cost; weighted
// when Options.Weights is set) after each round of sequential dynamics.
// Its non-monotonicity is evidence that the game admits no obvious
// exact potential — context for why Section 8 leaves convergence open.
func WelfareTrace(g *core.Game, start *graph.Digraph, opts Options) ([]int64, Result, error) {
	if opts.Scheduler == nil {
		opts.Scheduler = RoundRobin{}
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 200
	}
	r, err := newRun(g, start, opts)
	if err != nil {
		return nil, Result{}, err
	}
	defer r.end()
	d := r.d
	order := make([]int, g.N())
	trace := []int64{opts.welfare(g, d)}
	res := Result{}
	for round := 1; round <= opts.MaxRounds; round++ {
		opts.Scheduler.Order(order, round)
		moves := r.sequentialRound(order)
		res.Moves += moves
		res.Rounds = round
		trace = append(trace, opts.welfare(g, d))
		if moves == 0 {
			res.Converged = true
			break
		}
	}
	res.Final = d
	return trace, res, nil
}
