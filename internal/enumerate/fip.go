package enumerate

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Finite improvement property (FIP) analysis, a computational attack on
// the Section 8 open question "does the game converge?". Build the
// *improvement graph*: one node per strategy profile, one arc per
// single-player strict best-response move. If this graph is acyclic the
// game has the FIP for best-response dynamics — every improvement path
// terminates in a Nash equilibrium, for every scheduler. A cycle is a
// scheduler-independent certificate that some move order loops forever
// (the phenomenon Laoutaris et al. exhibited in the directed variant).
//
// The improvement graph has prod C(n-1,b_i) nodes, so this is exact
// small-n machinery, complementing the statistical evidence of
// dynamics.RunSimultaneous / experiments.DynamicsStats.

// FIPResult reports the improvement-graph analysis of one game.
type FIPResult struct {
	Profiles   int64
	Moves      int64 // arcs of the improvement graph (strict best-response moves)
	Equilibria int64 // sinks
	HasFIP     bool  // improvement graph is acyclic
	// CycleWitness, when HasFIP is false, is a sequence of profile
	// indices forming a best-response cycle (closed walk).
	CycleWitness []core.Profile
	// LongestPath is the length of the longest improvement path when
	// acyclic (the worst-case number of best-response moves to reach an
	// equilibrium from anywhere).
	LongestPath int
}

// BestResponseImprovementGraph builds the improvement graph of g with
// best-response moves (each player moves to one canonical best response;
// multiple best responses yield one arc per distinct optimal strategy)
// and analyses acyclicity. cap bounds the profile count.
func BestResponseImprovementGraph(g *core.Game, cap int64) (FIPResult, error) {
	profiles, index, err := allProfiles(g, cap)
	if err != nil {
		return FIPResult{}, err
	}
	res := FIPResult{Profiles: int64(len(profiles))}
	// Arcs: for each profile, for each player, every strictly improving
	// strategy that achieves the player's optimal deviation cost.
	adj := make([][]int32, len(profiles))
	n := g.N()
	// Consecutive profiles of the lexicographic enumeration differ in
	// very few players' strategies, so a cache pool repairs each player's
	// distance matrix across profiles (delta BFS over the changed edges)
	// instead of refilling it per (profile, player) pair.
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for pi, p := range profiles {
		d := p.Realize()
		pool.Invalidate()
		isSink := true
		for u := 0; u < n; u++ {
			if g.Budgets[u] == 0 {
				continue
			}
			dv := pool.Acquire(d, u)
			cur := dv.Eval(p[u])
			best := cur
			var bests [][]int
			forEachStrategy(n, u, g.Budgets[u], func(s []int) {
				// Bounded evaluation (SUM pruning kernel): a pruned
				// candidate is certified strictly worse than best, so it
				// can neither improve best nor tie it — the arc set is
				// identical to the full-evaluation scan.
				c, pruned := dv.EvalBounded(s, best)
				if pruned {
					return
				}
				if c < best {
					best = c
					bests = bests[:0]
				}
				if c == best && c < cur {
					bests = append(bests, append([]int(nil), s...))
				}
			})
			dv.Release()
			if len(bests) > 0 {
				isSink = false
			}
			for _, s := range bests {
				q := p.Clone()
				q[u] = s
				qi, ok := index[q.Hash()]
				if !ok {
					return FIPResult{}, fmt.Errorf("enumerate: successor profile not indexed")
				}
				adj[pi] = append(adj[pi], int32(qi))
				res.Moves++
			}
		}
		if isSink {
			res.Equilibria++
		}
	}
	// Acyclicity + longest path via Kahn's algorithm.
	indeg := make([]int32, len(profiles))
	for _, outs := range adj {
		for _, q := range outs {
			indeg[q]++
		}
	}
	order := make([]int32, 0, len(profiles))
	for i := range indeg {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	longest := make([]int32, len(profiles))
	processed := 0
	for head := 0; head < len(order); head++ {
		u := order[head]
		processed++
		for _, q := range adj[u] {
			if longest[u]+1 > longest[q] {
				longest[q] = longest[u] + 1
			}
			indeg[q]--
			if indeg[q] == 0 {
				order = append(order, q)
			}
		}
	}
	res.HasFIP = processed == len(profiles)
	if res.HasFIP {
		for _, l := range longest {
			if int(l) > res.LongestPath {
				res.LongestPath = int(l)
			}
		}
		return res, nil
	}
	// Extract a cycle from the residual graph (vertices with indeg > 0).
	res.CycleWitness = extractCycle(profiles, adj, indeg)
	return res, nil
}

// extractCycle walks within the non-eliminated subgraph until a repeat.
func extractCycle(profiles []core.Profile, adj [][]int32, indeg []int32) []core.Profile {
	start := int32(-1)
	for i, d := range indeg {
		if d > 0 {
			start = int32(i)
			break
		}
	}
	if start < 0 {
		return nil
	}
	seenAt := map[int32]int{}
	var walk []int32
	cur := start
	for {
		if at, ok := seenAt[cur]; ok {
			var cyc []core.Profile
			for _, pi := range walk[at:] {
				cyc = append(cyc, profiles[pi])
			}
			return cyc
		}
		seenAt[cur] = len(walk)
		walk = append(walk, cur)
		next := int32(-1)
		for _, q := range adj[cur] {
			if indeg[q] > 0 {
				next = q
				break
			}
		}
		if next < 0 {
			// Dead end inside the residual graph cannot happen: every
			// residual vertex lies on or upstream of a cycle; but guard
			// anyway.
			return nil
		}
		cur = next
	}
}

// allProfiles materialises every profile of g (subject to cap) plus a
// hash index. Hash collisions across distinct profiles would corrupt the
// index, so they are detected and reported.
func allProfiles(g *core.Game, cap int64) ([]core.Profile, map[uint64]int, error) {
	space := Space(g)
	if cap > 0 && space > cap {
		return nil, nil, fmt.Errorf("enumerate: profile space %d exceeds cap %d", space, cap)
	}
	if space > math.MaxInt32 {
		return nil, nil, fmt.Errorf("enumerate: profile space %d too large to materialise", space)
	}
	n := g.N()
	var profiles []core.Profile
	index := make(map[uint64]int, space)
	current := make(core.Profile, n)
	var rec func(player int) error
	rec = func(player int) error {
		if player == n {
			p := current.Clone()
			h := p.Hash()
			if prev, ok := index[h]; ok && !profiles[prev].Equal(p) {
				return fmt.Errorf("enumerate: profile hash collision")
			}
			index[h] = len(profiles)
			profiles = append(profiles, p)
			return nil
		}
		var err error
		forEachStrategy(n, player, g.Budgets[player], func(s []int) {
			if err != nil {
				return
			}
			current[player] = s
			err = rec(player + 1)
		})
		return err
	}
	if err := rec(0); err != nil {
		return nil, nil, err
	}
	return profiles, index, nil
}

// forEachStrategy enumerates the sorted b-subsets of {0..n-1}\{player}.
func forEachStrategy(n, player, b int, fn func(s []int)) {
	forEachStrategyUntil(n, player, b, func(s []int) bool {
		fn(s)
		return false
	})
}

// forEachStrategyUntil enumerates the sorted b-subsets of
// {0..n-1}\{player} until fn returns true, reporting whether it did —
// the early-exit form the equilibrium scan uses to stop at the first
// improving candidate.
func forEachStrategyUntil(n, player, b int, fn func(s []int) bool) bool {
	targets := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != player {
			targets = append(targets, v)
		}
	}
	comb := make([]int, b)
	strategy := make([]int, b)
	var rec func(start, at int) bool
	rec = func(start, at int) bool {
		if at == b {
			for i, idx := range comb {
				strategy[i] = targets[idx]
			}
			return fn(strategy)
		}
		for i := start; i <= len(targets)-(b-at); i++ {
			comb[at] = i
			if rec(i+1, at+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

// VerifyCycleWitness replays a claimed best-response cycle and confirms
// every step is a strict single-player improvement and the walk closes.
func VerifyCycleWitness(g *core.Game, cyc []core.Profile) error {
	if len(cyc) < 2 {
		return fmt.Errorf("enumerate: cycle needs >= 2 profiles")
	}
	for i := range cyc {
		p := cyc[i]
		q := cyc[(i+1)%len(cyc)]
		mover := -1
		for u := range p {
			if !equalInts(p[u], q[u]) {
				if mover >= 0 {
					return fmt.Errorf("enumerate: step %d changes two players", i)
				}
				mover = u
			}
		}
		if mover < 0 {
			return fmt.Errorf("enumerate: step %d is a no-op", i)
		}
		d := p.Realize()
		dv := core.NewDeviator(g, d, mover)
		if dv.Eval(q[mover]) >= dv.Eval(p[mover]) {
			return fmt.Errorf("enumerate: step %d does not strictly improve player %d", i, mover)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
