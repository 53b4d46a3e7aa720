package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzSumPrune is the native fuzz target of the SUM pruning layer: on
// arbitrary byte-decoded realizations it checks that the bounded kernel
// never rejects the true best candidate — the greedy, swap and exact
// responders on a pruning Deviator must match the oracle exactly — and
// that EvalBounded's prune certificate (cost strictly above the bound)
// holds for arbitrary strategies and budgets. CI runs it as a smoke on
// top of the seeded corpus; the corpus seeds mirror the 8 generator
// families of the property suite in byte-encoded form.

// decodeRealization turns fuzz bytes into a small digraph: byte 0 picks
// n in [2, 20], the rest are consumed pairwise as arcs u->v (mod n,
// self-loops skipped), capping out-degrees at 3 to keep the exact
// enumeration small.
func decodeRealization(data []byte) *graph.Digraph {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%19 + 2
	d := graph.NewDigraph(n)
	rest := data[1:]
	for i := 0; i+1 < len(rest); i += 2 {
		u := int(rest[i]) % n
		v := int(rest[i+1]) % n
		if u != v && d.OutDegree(u) < 3 {
			d.AddArc(u, v)
		}
	}
	return d
}

// familySeeds encodes one instance per generator family (path, cycle,
// star, tree, grid, random-out, preferential attachment, small world)
// as fuzz corpus bytes, so the fuzzer starts from the same structural
// shapes the property suite sweeps.
func familySeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(7201))
	budgets := make([]int, 8)
	for i := range budgets {
		budgets[i] = rng.Intn(3)
	}
	pa, err := graph.PreferentialAttachment(9, 2, rng)
	if err != nil {
		panic(err)
	}
	sw, err := graph.SmallWorld(10, 2, 0.3, rng)
	if err != nil {
		panic(err)
	}
	for _, d := range []*graph.Digraph{
		graph.PathGraph(7),
		graph.CycleGraph(8),
		graph.StarGraph(8),
		graph.RandomTree(9, rng),
		graph.GridGraph(3, 3),
		graph.RandomOutDigraph(budgets, rng),
		pa,
		sw,
	} {
		enc := []byte{byte(d.N() - 2)}
		for u := 0; u < d.N(); u++ {
			for _, v := range d.Out(u) {
				enc = append(enc, byte(u), byte(v))
			}
		}
		f.Add(enc, byte(0), byte(0))
	}
}

func FuzzSumPrune(f *testing.F) {
	familySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, uPick, budgetPick byte) {
		d := decodeRealization(data)
		if d == nil {
			return
		}
		g := GameOf(d, SUM)
		n := g.N()
		u := int(uPick) % n

		// Responder equivalence: a pool-owned Deviator past the
		// stability hysteresis, so the tier bounds and memo engage, vs
		// the uncached oracle. Each responder runs twice on the pooled
		// side — the second scan is served from the memo and must agree
		// too.
		pool := NewCachePool(g, 0)
		defer pool.Close()
		on := pool.Acquire(d, u)
		on.stable = 4
		if !on.HasCache() {
			t.Fatal("cache refused")
		}
		off := NewDeviator(g, d, u)

		gOff := g.greedyOn(off, d)
		for pass := 0; pass < 2; pass++ {
			gOn := g.greedyOn(on, d)
			if gOn.Cost != gOff.Cost || gOn.Explored != gOff.Explored || !equalInts(gOn.Strategy, gOff.Strategy) {
				t.Fatalf("greedy pass %d diverges: kernel %+v oracle %+v", pass, gOn, gOff)
			}
		}
		sOn, sOff := g.swapOn(on, d), g.swapOn(off, d)
		if sOn.Cost != sOff.Cost || sOn.Explored != sOff.Explored || !equalInts(sOn.Strategy, sOff.Strategy) {
			t.Fatalf("swap diverges: kernel %+v oracle %+v", sOn, sOff)
		}
		if StrategySpaceSize(n, g.Budgets[u]) <= 4096 {
			eOn, eOff := g.exactOn(on, d), g.exactOn(off, d)
			if eOn.Cost != eOff.Cost || eOn.Explored != eOff.Explored || !equalInts(eOn.Strategy, eOff.Strategy) {
				t.Fatalf("exact diverges: kernel %+v oracle %+v", eOn, eOff)
			}
		}

		// Prune-certificate soundness on a strategy derived from the
		// fuzz input, across budgets bracketing the true cost.
		rng := rand.New(rand.NewSource(int64(len(data))*31 + int64(uPick)))
		k := int(budgetPick) % 4
		if k > n-1 {
			k = n - 1
		}
		s := randomStrategy(n, u, k, rng)
		want := off.Eval(s)
		for _, bound := range []int64{0, want - 1, want, want + 1, int64(budgetPick) * 7, 1 << 40} {
			c, pruned := on.EvalBounded(s, bound)
			if pruned {
				if want <= bound {
					t.Fatalf("pruned although cost %d <= bound %d (s=%v)", want, bound, s)
				}
			} else if c != want {
				t.Fatalf("bounded cost %d != Eval %d (s=%v)", c, want, s)
			}
		}
	})
}
