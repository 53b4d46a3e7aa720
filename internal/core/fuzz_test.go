package core

import (
	"math/rand"
	"slices"
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
	for _, enc := range familyEncodings() {
		f.Add(enc, byte(0), byte(0))
	}
}

// familyEncodings returns the family instances of familySeeds in
// decodeRealization's byte form.
func familyEncodings() [][]byte {
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
	var encs [][]byte
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
		encs = append(encs, enc)
	}
	return encs
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

// FuzzPoolRows drives pooled SUM, MAX, weighted SUM and weighted MAX
// games through fuzz-chosen sequences of moves, reweights and
// over-invalidations, on graphs with an unbounded journal, a journal
// small enough to overflow, or none. After every step each acquired
// entry must expose, through the row accessor with offsets applied,
// exactly the rows of G−u a per-source Dijkstra (BFS at unit weights)
// computes — outside row and column u, which no kernel reads — with
// the matching inMin and component labels, and its greedy response
// must equal the uncached oracle's.
//
// kind picks the family (bits 0–1), the journal (bits 2–4: 0
// unbounded, 1–4 that many entries, more none) and the weight range
// (bits 5–7); every op byte moves (or, weighted, reweights) from the
// vertex it names.
func FuzzPoolRows(f *testing.F) {
	for i, enc := range familyEncodings() {
		f.Add(enc, []byte{3, 0x41, 7, 0x82, 0, 0xc5, 12, 0x23}, byte(i*37))
	}
	f.Fuzz(func(t *testing.T, data, ops []byte, kind byte) {
		d := decodeRealization(data)
		if d == nil || d.N() < 2 {
			return
		}
		n := d.N()
		version := []Version{SUM, MAX}[kind&1]
		var wts *graph.Weights
		if kind&2 != 0 {
			wts = graph.NewWeights(n, int64(kind), 2+int32(kind>>5))
		}
		switch j := int(kind>>2) & 7; {
		case j == 0:
			d.StartJournal(0)
		case j <= 4:
			d.StartJournal(j)
		}
		g := GameOf(d, version)
		pool := NewWeightedCachePool(g, 0, wts)
		defer pool.Close()
		rng := rand.New(rand.NewSource(int64(kind)))
		if len(ops) > 48 {
			ops = ops[:48]
		}
		for step, op := range ops {
			m := int(op) % n
			switch op >> 6 {
			case 0, 1:
				d.SetOut(m, randomStrategy(n, m, g.Budgets[m], rng))
			case 2:
				if v := rng.Intn(n); wts != nil && v != m {
					if err := wts.Set(m, v, 1+rng.Int31n(wts.MaxW())); err != nil {
						t.Fatal(err)
					}
				}
			}
			pool.Invalidate()
			for _, u := range []int{m, rng.Intn(n)} {
				dv := pool.Acquire(d, u)
				checkPoolRows(t, step, g, d, wts, dv)
				if g.Budgets[u] > 0 {
					sameBR(t, "pooled greedy", GreedyDeviatorResponder(g, d, dv), oracle(g, d, u, wts, (*Game).greedyOn))
				}
				dv.Release()
			}
		}
	})
}

// checkPoolRows fails unless pool entry dv exposes the rows, inMin and
// component labels of G−u for d, against a per-source Dijkstra oracle.
func checkPoolRows(t *testing.T, step int, g *Game, d *graph.Digraph, wts *graph.Weights, dv *Deviator) {
	t.Helper()
	n, u := g.N(), dv.u
	if dv.pool == nil {
		t.Fatalf("step %d u=%d: player served unpooled under an unbounded budget", step, u)
	}
	a := d.Underlying()
	weight := func(x, y int) int32 {
		if wts == nil {
			return 1
		}
		return wts.Of(x, y)
	}
	view := viewRows(dv)
	inMin := make([]int32, n)
	for w := range inMin {
		inMin[w] = graph.InfDist
	}
	dist := make([]int32, n)
	done := make([]bool, n)
	for s := 0; s < n; s++ {
		if s == u {
			continue
		}
		// Dijkstra from s over G−u, O(n²).
		for i := range dist {
			dist[i], done[i] = graph.InfDist, false
		}
		dist[s] = 0
		for {
			x := -1
			for i := range dist {
				if !done[i] && i != u && dist[i] < graph.InfDist && (x < 0 || dist[i] < dist[x]) {
					x = i
				}
			}
			if x < 0 {
				break
			}
			done[x] = true
			for _, y := range a[x] {
				if y != u && dist[x]+weight(x, y) < dist[y] {
					dist[y] = dist[x] + weight(x, y)
				}
			}
		}
		off := int32(0)
		if wts != nil {
			off = wts.Of(u, s) - 1
		}
		for w := 0; w < n; w++ {
			want := dist[w]
			if want < graph.InfDist {
				want += off
			}
			if w != u && view[s*n+w] != want {
				t.Fatalf("step %d u=%d row %d col %d: pooled %d, oracle %d (private %v)",
					step, u, s, w, view[s*n+w], want, dv.priv[s] >= 0)
			}
		}
		if slices.Contains(dv.in, s) {
			for w := range inMin {
				if dist[w] < graph.InfDist {
					inMin[w] = min(inMin[w], dist[w]+off)
				}
			}
		}
	}
	inMin[u] = -1
	if !slices.Equal(dv.inMin, inMin) {
		t.Fatalf("step %d u=%d: pooled inMin %v, oracle %v", step, u, dv.inMin, inMin)
	}
	if !slices.Equal(dv.in, d.In(u)) {
		t.Fatalf("step %d u=%d: pooled in(u) %v, graph %v", step, u, dv.in, d.In(u))
	}
	label, comps := graph.ComponentsExcluding(a, u)
	if dv.comps != comps || !slices.Equal(dv.label, label) {
		t.Fatalf("step %d u=%d: pooled components %d %v, oracle %d %v", step, u, dv.comps, dv.label, comps, label)
	}
}
