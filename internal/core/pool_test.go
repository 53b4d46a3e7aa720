package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// mutateRandomPlayer rewires one random player's out-set to a fresh
// random strategy of the same budget.
func mutateRandomPlayer(g *Game, d *graph.Digraph, rng *rand.Rand) int {
	n := g.N()
	m := rng.Intn(n)
	d.SetOut(m, randomStrategy(n, m, g.Budgets[m], rng))
	return m
}

// A pool entry synced after arbitrary accumulated moves must read
// exactly the rows of a Deviator built fresh against the mutated graph
// (outside column u), with the same inMin and component structure, and
// evaluate every strategy as plain BFS does — across all 8 generator
// families, both versions, and graphs with and without a journal, with
// the MAX level sets kept through the syncs.
func TestPropertyRepairMatchesRebuildAcrossGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(8001))
	for round := 0; round < 4; round++ {
		for _, inst := range generatorCorpus(rng) {
			for _, version := range []Version{SUM, MAX} {
				g := GameOf(inst.d, version)
				n := g.N()
				d := inst.d.Clone()
				if round%2 == 0 {
					d.StartJournal(0)
				}
				u := rng.Intn(n)
				pool := NewCachePool(g, 0)
				dv := pool.Acquire(d, u)
				dv.ensureLevels() // force the level sets through the syncs too
				dv.Release()
				for step := 0; step < 4; step++ {
					moves := 1 + rng.Intn(3)
					for i := 0; i < moves; i++ {
						mutateRandomPlayer(g, d, rng)
					}
					pool.Invalidate()
					pool.Acquire(d, rng.Intn(n)).Release() // D syncs before u's turn, sometimes
					dv = pool.Acquire(d, u)
					fresh := NewDeviator(g, d, u)
					if !fresh.EnsureCache(1 << 40) {
						t.Fatalf("%s: fresh cache refused", inst.name)
					}
					got, want := viewRows(dv), viewRows(fresh)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %v u=%d step=%d: pooled rows[%d,%d]=%d, fresh=%d",
								inst.name, version, u, step, i/n, i%n, got[i], want[i])
						}
					}
					for i := range fresh.inMin {
						if dv.inMin[i] != fresh.inMin[i] {
							t.Fatalf("%s %v u=%d step=%d: pooled inMin[%d]=%d, fresh=%d",
								inst.name, version, u, step, i, dv.inMin[i], fresh.inMin[i])
						}
					}
					if dv.comps != fresh.comps || !equalInts(dv.label, fresh.label) {
						t.Fatalf("%s %v u=%d: pooled comps=%d, fresh=%d", inst.name, version, u, dv.comps, fresh.comps)
					}
					plain := NewDeviator(g, d, u)
					for k := 0; k <= 3 && k <= n-1; k++ {
						s := randomStrategy(n, u, k, rng)
						if got, want := dv.Eval(s), plain.Eval(s); got != want {
							t.Fatalf("%s %v u=%d s=%v: pooled eval %d, BFS %d",
								inst.name, version, u, s, got, want)
						}
					}
					fresh.Release()
					dv.Release()
				}
				pool.Close()
			}
		}
	}
}

// The pooled responders must return exactly what the plain responders
// return, move for move, as the profile evolves.
func TestPooledRespondersMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(8002))
	for _, inst := range generatorCorpus(rng) {
		for _, version := range []Version{SUM, MAX} {
			g := GameOf(inst.d, version)
			d := inst.d.Clone()
			pool := NewCachePool(g, 0)
			for step := 0; step < 6; step++ {
				u := rng.Intn(g.N())
				if g.Budgets[u] == 0 {
					continue
				}
				dv := pool.Acquire(d, u)
				var pooled, plain BestResponse
				switch step % 3 {
				case 0:
					pooled, plain = GreedyDeviatorResponder(g, d, dv), GreedyResponder(g, d, u)
				case 1:
					pooled, plain = SwapDeviatorResponder(g, d, dv), SwapResponder(g, d, u)
				default:
					pooled, plain = ExactDeviatorResponder(0)(g, d, dv), ExactResponder(0)(g, d, u)
				}
				dv.Release()
				if pooled.Cost != plain.Cost || pooled.Current != plain.Current ||
					pooled.Explored != plain.Explored || !equalInts(pooled.Strategy, plain.Strategy) {
					t.Fatalf("%s %v u=%d step=%d: pooled %+v, plain %+v", inst.name, version, u, step, pooled, plain)
				}
				if plain.Improves() {
					d.SetOut(u, plain.Strategy)
					pool.Invalidate()
				}
			}
			pool.Close()
		}
	}
}

// Releasing a pooled Deviator must keep its matrices alive in the pool
// (round-scoped reuse), not recycle them into the global allocator.
func TestPooledReleaseKeepsCache(t *testing.T) {
	g := UniformGame(12, 2, SUM)
	rng := rand.New(rand.NewSource(8003))
	d := graph.RandomOutDigraph(g.Budgets, rng)
	pool := NewCachePool(g, 0)
	defer pool.Close()
	dv := pool.Acquire(d, 3)
	if !dv.HasCache() {
		t.Fatal("pooled Deviator has no cache")
	}
	rows := &dv.rows[0]
	dv.Release()
	if !dv.HasCache() {
		t.Fatal("Release dropped a pooled cache")
	}
	again := pool.Acquire(d, 3)
	if again != dv || &again.rows[0] != rows {
		t.Fatal("re-acquire did not return the pooled entry")
	}
	st := pool.Stats()
	if st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 fill and 1 hit", st)
	}
}

// A pool with room for the shared matrix and a single entry must pool
// exactly one player (static admission: dynamics visit players
// cyclically, where eviction policies degenerate to churn) and serve
// everyone else with plain, still-correct Deviators.
func TestPoolAdmissionUnderPressure(t *testing.T) {
	g := UniformGame(10, 1, SUM)
	rng := rand.New(rand.NewSource(8004))
	d := graph.RandomOutDigraph(g.Budgets, rng)
	probe := NewCachePool(g, 0)
	probe.Acquire(d, 0).Release()
	budget := probe.BytesUsed() // the shared matrix plus player 0's entry
	probe.Close()
	pool := NewCachePool(g, budget)
	defer pool.Close()
	a := pool.Acquire(d, 0)
	if !a.HasCache() {
		t.Fatal("first entry not pooled")
	}
	a.Release()
	b := pool.Acquire(d, 1) // budget is spent: b stays unpooled
	if b.HasCache() {
		t.Fatal("second entry pooled beyond the budget")
	}
	b.Release()
	again := pool.Acquire(d, 0) // the resident player keeps hitting
	if again != a || !again.HasCache() {
		t.Fatal("resident entry lost")
	}
	st := pool.Stats()
	if st.Fills != 1 || st.Hits != 1 || st.Unpooled != 1 {
		t.Fatalf("stats = %+v, want 1 fill, 1 hit, 1 unpooled", st)
	}
	// The unpooled Deviator must still evaluate correctly.
	plain := NewDeviator(g, d, 1)
	s := randomStrategy(10, 1, 1, rng)
	if b.Eval(s) != plain.Eval(s) {
		t.Fatal("unpooled Deviator evaluates wrong")
	}
}

// A budget that holds the shared matrix and every MAX entry but not the
// shared level sets must keep them all once the streaks reach the level
// kernel: the level sets are refused, scans stay on the row kernel and
// match the oracle, and the shared matrix is never dropped and filled
// again. As greedy moves then grow the damage sets, a player whose
// entry no longer fits is served unpooled from then on — never
// re-admitted — and the pool never exceeds its budget.
func TestPoolBudgetWithoutLevelSets(t *testing.T) {
	g := UniformGame(48, 2, MAX)
	n := g.N()
	rng := rand.New(rand.NewSource(8006))
	d := graph.RandomOutDigraph(g.Budgets, rng)
	d.StartJournal(0)
	// pass acquires and scans every player once, moving improvers when
	// move is set; it returns how many were served pooled.
	pass := func(pool *CachePool, move bool, evicted []bool) int {
		t.Helper()
		pooled := 0
		for u := 0; u < n; u++ {
			dv := pool.Acquire(d, u)
			switch {
			case dv.HasCache():
				pooled++
				if evicted != nil && evicted[u] {
					t.Fatalf("player %d re-admitted after eviction", u)
				}
			case evicted != nil:
				evicted[u] = true
			}
			br := GreedyDeviatorResponder(g, d, dv)
			sameBR(t, "pooled greedy", br, oracle(g, d, u, nil, (*Game).greedyOn))
			dv.Release()
			if used := pool.BytesUsed(); used > pool.BytesBudget() && pool.BytesBudget() > 0 {
				t.Fatalf("player %d: BytesUsed %d over budget %d", u, used, pool.BytesBudget())
			}
			if move && br.Improves() {
				d.SetOut(u, br.Strategy)
				pool.Invalidate()
			}
		}
		return pooled
	}
	probe := NewCachePool(g, 0)
	pass(probe, false, nil)
	pass(probe, false, nil) // streaks at 1: still on the row kernel
	budget := probe.BytesUsed()
	pass(probe, false, nil)
	if probe.sh.lc == nil || probe.BytesUsed() <= budget {
		t.Fatal("an unbounded pool built no shared level sets")
	}
	probe.Close()

	pool := NewCachePool(g, budget)
	defer pool.Close()
	for k := 0; k < 3; k++ {
		if got := pass(pool, false, nil); got != n {
			t.Fatalf("pass %d: %d of %d players pooled", k, got, n)
		}
	}
	if pool.sh.lc != nil || !pool.sh.noLevels {
		t.Fatal("level sets held beyond the budget")
	}
	if st := pool.Stats(); st.Fills != 1 || st.Unpooled != 0 || len(pool.entries) != n {
		t.Fatalf("stats = %+v with %d entries, want 1 fill and every player resident", st, len(pool.entries))
	}
	evicted := make([]bool, n)
	for k := 0; k < 4; k++ {
		pass(pool, true, evicted)
	}
	if st := pool.Stats(); st.Fills != 1 {
		t.Fatalf("stats = %+v, want exactly 1 fill of the shared matrix", st)
	}
}

// retained sums, by reflection, the capacity in bytes of every slice
// reachable from v through struct fields, pointers to structs and slice
// elements — an independent recount of what CachePool.account charges.
func retained(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return retained(v.Elem())
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += retained(v.Field(i))
		}
		return b
	case reflect.Slice:
		b := int64(v.Cap()) * int64(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			b += retained(v.Index(i))
		}
		return b
	}
	return 0
}

// recount is the independent recount of p's retained bytes: D's state
// without the graph kernels' scratch, its refill destinations counted as
// views only, and every entry without the references it shares (game,
// pool, weights, D) or the oracle-path state pool entries never build.
func recount(p *CachePool) int64 {
	var b int64
	if p.sh != nil {
		sh := *p.sh
		b += 24 * int64(cap(sh.dst))
		sh.of, sh.ds, sh.dst = nil, graph.DeltaScratch{}, nil
		b += retained(reflect.ValueOf(sh))
	}
	for _, e := range p.entries {
		dv := *e.dv
		dv.game, dv.pool, dv.wts, dv.shared = nil, nil, nil, nil
		b += retained(reflect.ValueOf(dv))
	}
	return b
}

// Budgets bound real bytes: after random move and reweight sequences
// over the 8 generator families, in both versions and both tiers,
// BytesUsed must equal the independent recount of every retained slice
// after each acquisition and release; and a pool whose budget is half
// of what the same sequence held unbounded must never exceed it, while
// every response still matches the oracle.
func TestPoolBytesUsedMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(8005))
	tight := 0
	for _, inst := range generatorCorpus(rng) {
		for _, version := range []Version{SUM, MAX} {
			for _, weighted := range []bool{false, true} {
				seed := rng.Int63()
				var peak int64
				for _, budget := range []int64{0, -1} {
					if budget < 0 {
						budget = peak / 2
					}
					r := rand.New(rand.NewSource(seed))
					d := inst.d.Clone()
					d.StartJournal(8)
					g := GameOf(d, version)
					n := g.N()
					var wts *graph.Weights
					if weighted {
						wts = graph.NewWeights(n, seed, 6)
					}
					pool := NewWeightedCachePool(g, budget, wts)
					check := func(when string, step int) {
						t.Helper()
						used := pool.BytesUsed()
						if got := recount(pool); used != got {
							t.Fatalf("%s %v weighted=%v budget=%d step %d %s: BytesUsed %d, recount %d",
								inst.name, version, weighted, budget, step, when, used, got)
						}
						if budget > 0 && used > budget {
							t.Fatalf("%s %v weighted=%v step %d %s: BytesUsed %d over budget %d",
								inst.name, version, weighted, step, when, used, budget)
						}
						peak = max(peak, used)
					}
					for step := 0; step < 24; step++ {
						switch m := r.Intn(n); r.Intn(3) {
						case 0:
							d.SetOut(m, randomStrategy(n, m, g.Budgets[m], r))
							pool.Invalidate()
						case 1:
							if v := r.Intn(n); weighted && v != m {
								if err := wts.Set(m, v, 1+r.Int31n(6)); err != nil {
									t.Fatal(err)
								}
							}
						}
						u := r.Intn(n)
						dv := pool.Acquire(d, u)
						check("after Acquire", step)
						if g.Budgets[u] > 0 {
							sameBR(t, inst.name+" pooled greedy", GreedyDeviatorResponder(g, d, dv), oracle(g, d, u, wts, (*Game).greedyOn))
						}
						dv.Release()
						check("after Release", step)
					}
					if budget > 0 && pool.Stats().Unpooled > 0 {
						tight++
					}
					pool.Close()
					if pool.BytesUsed() != 0 {
						t.Fatalf("%s: Close left %d bytes charged", inst.name, pool.BytesUsed())
					}
				}
			}
		}
	}
	if tight == 0 {
		t.Fatal("no tight budget ever served a player unpooled")
	}
}
