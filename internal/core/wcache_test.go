package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// weightedFamilies returns one instance of each generator family, the
// coverage matrix of the weighted kernel-vs-reference suite.
func weightedFamilies(rng *rand.Rand) map[string]*graph.Digraph {
	pa, err := graph.PreferentialAttachment(14, 2, rng)
	if err != nil {
		panic(err)
	}
	sw, err := graph.SmallWorld(14, 2, 0.3, rng)
	if err != nil {
		panic(err)
	}
	budgets := make([]int, 13)
	for i := range budgets {
		budgets[i] = rng.Intn(3)
	}
	return map[string]*graph.Digraph{
		"path":   graph.PathGraph(12),
		"cycle":  graph.CycleGraph(12),
		"star":   graph.StarGraph(12),
		"tree":   graph.RandomTree(13, rng),
		"grid":   graph.GridGraph(3, 4),
		"random": graph.RandomOutDigraph(budgets, rng),
		"pa":     pa,
		"sw":     sw,
	}
}

// randStrategy returns b distinct targets != u.
func randStrategy(n, u, b int, rng *rand.Rand) []int {
	have := make(map[int]bool)
	var s []int
	for len(s) < b {
		v := rng.Intn(n)
		if v != u && !have[v] {
			have[v] = true
			s = append(s, v)
		}
	}
	return s
}

// The weighted cached evaluation (raw rows read at their offsets by the
// unchanged min-merge kernels) must agree with the per-candidate Dijkstra
// fallback on every family, weight range and cost version — and with
// the unweighted engine at unit weights.
func TestWeightedEvalCachedVsDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, d := range weightedFamilies(rng) {
		for _, version := range []Version{SUM, MAX} {
			for _, maxW := range []int32{1, 5, 40} {
				g := GameOf(d, version)
				n := g.N()
				wts := graph.NewWeights(n, rng.Int63(), maxW)
				for trial := 0; trial < 6; trial++ {
					u := rng.Intn(n)
					s := randStrategy(n, u, rng.Intn(3), rng)

					cached := NewWeightedDeviator(g, d, u, wts)
					if !cached.EnsureCache(DefaultCacheBudget) {
						t.Fatalf("%s/%v: weighted cache refused", name, version)
					}
					fallback := NewWeightedDeviator(g, d, u, wts)
					got, want := cached.Eval(s), fallback.Eval(s)
					if got != want {
						t.Fatalf("%s/%v maxW=%d u=%d s=%v: cached %d, dijkstra %d",
							name, version, maxW, u, s, got, want)
					}
					if maxW == 1 {
						plain := NewDeviator(g, d, u)
						plain.EnsureCache(DefaultCacheBudget)
						if pc := plain.Eval(s); pc != got {
							t.Fatalf("%s/%v u=%d s=%v: unit-weighted %d, unweighted %d",
								name, version, u, s, got, pc)
						}
						plain.release()
					}
					cached.release()
					fallback.release()
				}
			}
		}
	}
}

// Unit weights must reproduce the unweighted cost surface exactly:
// per-player costs and the social cost.
func TestWeightedUnitBridge(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for name, d := range weightedFamilies(rng) {
		for _, version := range []Version{SUM, MAX} {
			g := GameOf(d, version)
			wts := graph.NewWeights(g.N(), 1, 1)
			w, p := g.WeightedAllCosts(d, wts), g.AllCosts(d)
			for u := range w {
				if w[u] != p[u] {
					t.Fatalf("%s/%v: WeightedAllCosts[%d] = %d, AllCosts = %d", name, version, u, w[u], p[u])
				}
			}
			if ws, ps := g.WeightedSocialCost(d, wts), g.SocialCost(d); ws != ps {
				t.Fatalf("%s/%v: weighted social cost %d, plain %d", name, version, ws, ps)
			}
		}
	}
}

// The weighted responders on the cached tier (Dijkstra fill, SUM
// kernel) must return exactly what the oracle — per-candidate Dijkstra
// on an uncached weighted Deviator — returns.
func TestWeightedResponderKnobMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for name, d := range weightedFamilies(rng) {
		for _, version := range []Version{SUM, MAX} {
			g := GameOf(d, version)
			wts := graph.NewWeights(g.N(), 17, 9)
			u := rng.Intn(g.N())
			ctx := fmt.Sprintf("%s/%v u=%d", name, version, u)
			sameBR(t, ctx+" greedy", WeightedGreedyResponder(wts)(g, d, u), oracle(g, d, u, wts, (*Game).greedyOn))
			sameBR(t, ctx+" swap", WeightedSwapResponder(wts)(g, d, u), oracle(g, d, u, wts, (*Game).swapOn))
		}
	}
}

// weightedStream runs a mixed mutation stream (rewires + weight sets)
// against a weighted pool, comparing every pooled greedy response with
// the oracle — the end-to-end pin of the weighted shared-matrix repair,
// the offset sync and the pool ladder. Without a journal every change
// fills the shared matrix whole instead of taking the journal's delta.
func weightedStream(t *testing.T, version Version, journal bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(64))
	n := 16
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 1 + rng.Intn(2)
	}
	d := graph.RandomOutDigraph(budgets, rng)
	g := GameOf(d, version)
	wts := graph.NewWeights(n, 5, 11)
	pool := NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	if journal {
		d.StartJournal(4*n + 64)
	}
	for round := 0; round < 12; round++ {
		// Mutate: one rewire and/or a couple of weight changes.
		if rng.Intn(3) > 0 {
			m := rng.Intn(n)
			d.SetOut(m, randStrategy(n, m, g.Budgets[m], rng))
			pool.Invalidate()
		}
		for k := rng.Intn(3); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				if err := wts.Set(u, v, 1+int32(rng.Intn(11))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := 0; u < n; u++ {
			dv := pool.Acquire(d, u)
			got := GreedyDeviatorResponder(g, d, dv)
			dv.Release()
			sameBR(t, fmt.Sprintf("round %d u=%d (stats %+v)", round, u, pool.Stats()), got,
				oracle(g, d, u, wts, (*Game).greedyOn))
		}
	}
	// Entries are built once per player and synced from then on.
	st := pool.Stats()
	if st.Acquires-st.Hits-st.Unpooled != int64(n) {
		t.Fatalf("pool rebuilt entries instead of syncing: %+v", st)
	}
	if journal && (st.RowsRefilled == 0 || st.DeltaRepairs == 0) {
		t.Fatalf("journaled stream skipped the private-refill or delta-repair rung: %+v", st)
	}
	// Without a journal every topology change resyncs; weight-only
	// steps still repair from the weights change log.
	if !journal && st.Resyncs == 0 {
		t.Fatalf("journal-less stream did not resync: %+v", st)
	}
}

func TestWeightedPoolRepairVsRefillSUM(t *testing.T) { weightedStream(t, SUM, true) }
func TestWeightedPoolRepairVsRefillMAX(t *testing.T) { weightedStream(t, MAX, true) }

// The same stream without a journal climbs the Resync rung and must
// still agree.
func TestWeightedPoolKnobsOff(t *testing.T) { weightedStream(t, SUM, false) }

// Settled weighted rounds must be free: untouched graph and weights
// cost a generation comparison per player — no repairs, no resyncs.
func TestWeightedPoolSettledZeroResync(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	d := graph.RandomOutDigraph([]int{1, 2, 1, 2, 1, 2, 1, 2}, rng)
	g := GameOf(d, SUM)
	wts := graph.NewWeights(g.N(), 2, 7)
	pool := NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	for u := 0; u < g.N(); u++ {
		pool.Acquire(d, u).Release()
	}
	before := pool.Stats()
	for wave := 0; wave < 3; wave++ {
		for u := 0; u < g.N(); u++ {
			pool.Acquire(d, u).Release()
		}
	}
	after := pool.Stats()
	if after.Repairs != before.Repairs || after.Resyncs != before.Resyncs || after.Fills != before.Fills {
		t.Fatalf("settled waves did work: before %+v, after %+v", before, after)
	}
}

// Weight-only mutations must resync through the change log without an
// Invalidate call and stay bit-identical to a fresh fill.
func TestWeightedPoolWeightOnlySync(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	d := graph.RandomOutDigraph([]int{2, 1, 2, 1, 2, 1, 2, 1, 2, 1}, rng)
	g := GameOf(d, SUM)
	n := g.N()
	wts := graph.NewWeights(n, 3, 9)
	pool := NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	plain := WeightedGreedyResponder(wts)
	for u := 0; u < n; u++ {
		pool.Acquire(d, u).Release()
	}
	for round := 0; round < 8; round++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := wts.Set(u, v, 1+int32(rng.Intn(9))); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			dv := pool.Acquire(d, p)
			got := GreedyDeviatorResponder(g, d, dv)
			dv.Release()
			if want := plain(g, d, p); got.Cost != want.Cost {
				t.Fatalf("round %d player %d: pooled %d, fresh %d", round, p, got.Cost, want.Cost)
			}
		}
	}
	if st := pool.Stats(); st.Acquires-st.Hits-st.Unpooled != int64(n) || st.Resyncs != 0 {
		t.Fatalf("weight-only stream hit the topology ladder: %+v", st)
	}
}

// A weight-only mutation moves no graph anchor, so the round memo must
// key on the weights generation too: a stale "no improving move" answer
// may become improving when an edge gets cheaper.
func TestWeightedPoolMemoInvalidatedByWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	d := graph.RandomOutDigraph([]int{1, 1, 2, 1, 1, 2}, rng)
	g := GameOf(d, SUM)
	wts := graph.NewWeights(g.N(), 8, 6)
	pool := NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	d.StartJournal(256)
	// Settle the graph so some player certifiably has no improving move
	// and the memo engages for real.
	for moved, rounds := true, 0; moved && rounds < 50; rounds++ {
		moved = false
		for u := 0; u < g.N(); u++ {
			dv := pool.Acquire(d, u)
			br := GreedyDeviatorResponder(g, d, dv)
			dv.Release()
			if br.Improves() {
				d.SetOut(u, br.Strategy)
				pool.Invalidate()
				moved = true
			}
		}
	}
	u := 0
	dv := pool.Acquire(d, u)
	br := GreedyDeviatorResponder(g, d, dv)
	dv.Release()
	if br.Improves() {
		t.Fatal("dynamics did not settle")
	}
	pool.NoteResponse(d, u, false)
	if !pool.SkipResponse(d, u) {
		t.Fatal("memo did not engage on the unchanged graph")
	}
	if err := wts.Set(1, 2, 6); err != nil {
		t.Fatal(err)
	}
	if pool.SkipResponse(d, u) {
		t.Fatal("memo survived a weight mutation")
	}
}

// The cache must refuse instances whose adjusted distances cannot be
// encoded, leaving the Dijkstra fallback in charge.
func TestWeightedCacheRefusesOverflow(t *testing.T) {
	d := graph.PathGraph(8)
	g := GameOf(d, SUM)
	wts := graph.NewWeights(8, 1, 1<<29)
	dv := NewWeightedDeviator(g, d, 1, wts)
	defer dv.release()
	if dv.EnsureCache(DefaultCacheBudget) {
		t.Fatal("cache accepted an un-encodable weight range")
	}
	if c := dv.Eval([]int{0}); c <= 0 {
		t.Fatalf("fallback Eval = %d", c)
	}
}

// Satellite: WeightedBestResponsePooled must reuse the warm pool —
// exactly one fill per player across repeated calls — and agree with
// the throwaway-Deviator path, folds included (the Section-6 zero-
// weight vertices contribute nothing on either path).
func TestWeightedBestResponsePooled(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := graph.RandomOutDigraph([]int{1, 2, 1, 1, 2, 1, 1, 2, 1, 1}, rng)
	wg := NewVertexWeighted(d)
	wg.W[3] = 0 // folded away
	wg.W[7] = 4 // weight transferred by a fold
	pool := NewCachePool(GameOf(d, SUM), 0)
	defer pool.Close()
	for pass := 0; pass < 3; pass++ {
		for u := 0; u < d.N(); u++ {
			if !wg.Alive(u) {
				continue
			}
			got, err := wg.WeightedBestResponsePooled(u, 0, pool)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wg.WeightedBestResponse(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || got.Current != want.Current {
				t.Fatalf("pass %d u=%d: pooled %+v, plain %+v", pass, u, got, want)
			}
		}
	}
	if st := pool.Stats(); st.Acquires-st.Hits-st.Unpooled != int64(d.N()-1) {
		t.Fatalf("expected one entry built per alive player, got %+v", st)
	}
	dev, err := wg.WeightedNashDeviationPooled(0, pool)
	if err != nil {
		t.Fatal(err)
	}
	devPlain, err := wg.WeightedNashDeviation(0)
	if err != nil {
		t.Fatal(err)
	}
	if (dev == nil) != (devPlain == nil) {
		t.Fatalf("pooled deviation %+v, plain %+v", dev, devPlain)
	}
}
