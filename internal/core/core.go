// Package core implements the bounded budget network creation game
// (b1,...,bn)-BG of Ehsani et al. (SPAA 2011): n players, player i owning
// exactly b_i arcs to other players, distances measured in the undirected
// underlying graph, and per-player cost equal to either the local diameter
// (MAX version) or the total distance to all other players (SUM version),
// with a C_inf = n^2 penalty steering players toward connecting the graph.
//
// The package provides cost evaluation, exact and heuristic best-response
// computation, and parallel Nash / swap-equilibrium verification. It is
// the paper's primary contribution; the graph substrate lives in
// internal/graph.
//
// Best-response evaluation runs on the distance-cache deviation engine
// (distcache.go): a Deviator for player u can materialise the full
// dist_{G-u} matrix (flat n×n int32, filled by word-parallel batched BFS
// on a worker pool), after which every candidate strategy is an O(n)
// min-merge over cached rows instead of a BFS, and the greedy, swap and
// exact responders get incremental forms. The cache respects
// DefaultCacheBudget (4·n·(n+1) bytes needed) and falls back to exact
// BFS evaluation beyond it, so memory stays bounded on large sweeps. A
// CachePool (pool.go) instead shares one matrix of the whole graph
// across its players and keeps per player only the rows that player's
// deletion damages.
// Deviators are single-goroutine; parallel responders clone them per
// worker around the shared immutable cache.
package core

import (
	"fmt"

	"repro/internal/graph"
)

// Version selects the cost function of the game.
type Version int

const (
	// SUM: cost of u is the sum of distances from u to every other
	// vertex, disconnected pairs counting C_inf = n^2 each.
	SUM Version = iota
	// MAX: cost of u is its local diameter plus (kappa-1)*n^2 where
	// kappa is the number of connected components; the local diameter
	// itself is n^2 whenever the graph is disconnected.
	MAX
)

func (v Version) String() string {
	switch v {
	case SUM:
		return "SUM"
	case MAX:
		return "MAX"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// Game is an instance (b1,...,bn)-BG: a budget vector and a cost version.
// Budgets are nonnegative and strictly less than n.
type Game struct {
	Budgets []int
	Version Version
}

// NewGame validates the budget vector and returns the game instance.
func NewGame(budgets []int, v Version) (*Game, error) {
	n := len(budgets)
	for i, b := range budgets {
		if b < 0 || b >= n {
			return nil, fmt.Errorf("core: budget b[%d]=%d out of range [0,%d)", i, b, n)
		}
	}
	return &Game{Budgets: append([]int(nil), budgets...), Version: v}, nil
}

// MustGame is NewGame that panics on invalid input; for tests and
// constructions with static budgets.
func MustGame(budgets []int, v Version) *Game {
	g, err := NewGame(budgets, v)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of players.
func (g *Game) N() int { return len(g.Budgets) }

// TotalBudget returns b1+...+bn. Instances with total budget >= n-1 admit
// connected realizations (Lemma 3.1: all their equilibria are connected).
func (g *Game) TotalBudget() int {
	s := 0
	for _, b := range g.Budgets {
		s += b
	}
	return s
}

// UniformGame returns the game with all budgets equal to b.
func UniformGame(n, b int, v Version) *Game {
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = b
	}
	return MustGame(budgets, v)
}

// Cinf returns the disconnection distance constant n^2 (as int64; costs
// are accumulated in int64 to keep n * n^2 exact for the instance sizes
// this repo sweeps).
func (g *Game) Cinf() int64 {
	n := int64(g.N())
	return n * n
}

// CheckRealization verifies that d realizes the game: |out(i)| = b_i for
// every player.
func (g *Game) CheckRealization(d *graph.Digraph) error {
	if d.N() != g.N() {
		return fmt.Errorf("core: graph has %d vertices, game has %d players", d.N(), g.N())
	}
	for i, b := range g.Budgets {
		if d.OutDegree(i) != b {
			return fmt.Errorf("core: vertex %d owns %d arcs, budget is %d", i, d.OutDegree(i), b)
		}
	}
	return nil
}

// GameOf derives the budget vector implied by a realization (outdegrees).
func GameOf(d *graph.Digraph, v Version) *Game {
	budgets := make([]int, d.N())
	for i := range budgets {
		budgets[i] = d.OutDegree(i)
	}
	return MustGame(budgets, v)
}
