package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Equivalence and soundness of the SUM evaluation kernel (sumkernel.go):
// the blocked min-merge plus the candidate-pruning bounds must leave
// every responder's output — cost, strategy, tie-breaking, Explored —
// bit-identical to the reference oracle, across all 8 generator
// families, and a pruned evaluation must always certify a cost strictly
// above the budget (the bound never rejects a true best candidate).

// oracle runs a responder on the reference Deviator: no distance cache,
// so every candidate costs one plain BFS (Dijkstra under wts; nil wts is
// unweighted). Every fast path must reproduce its answer bit for bit.
func oracle(g *Game, d *graph.Digraph, u int, wts *graph.Weights, respond func(*Game, *Deviator, *graph.Digraph) BestResponse) BestResponse {
	return respond(g, NewWeightedDeviator(g, d, u, wts), d)
}

// withoutCache runs fn with DefaultCacheBudget at 0, so the one-shot
// responders fn calls take the uncached oracle path.
func withoutCache(fn func()) {
	defer func(b int64) { DefaultCacheBudget = b }(DefaultCacheBudget)
	DefaultCacheBudget = 0
	fn()
}

func sameBR(t *testing.T, ctx string, a, b BestResponse) {
	t.Helper()
	if a.Cost != b.Cost || a.Current != b.Current || a.Explored != b.Explored {
		t.Fatalf("%s: kernel %+v, oracle %+v", ctx, a, b)
	}
	if !equalInts(a.Strategy, b.Strategy) {
		t.Fatalf("%s: kernel strategy %v, oracle %v", ctx, a.Strategy, b.Strategy)
	}
}

// TestPropertySumKernelRespondersAcrossGenerators pins every one-shot
// responder (greedy, swap, exact) on the cached kernel against the
// oracle on every generator family. The pruning bound rejecting a true
// best candidate would surface here as a cost or tie-break divergence.
func TestPropertySumKernelRespondersAcrossGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7101))
	for round := 0; round < 3; round++ {
		for _, inst := range generatorCorpus(rng) {
			g := GameOf(inst.d, SUM)
			for u := 0; u < g.N(); u++ {
				e, err := g.ExactBestResponse(inst.d, u, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameBR(t, inst.name+" greedy", g.GreedyBestResponse(inst.d, u), oracle(g, inst.d, u, nil, (*Game).greedyOn))
				sameBR(t, inst.name+" swap", g.BestSwap(inst.d, u), oracle(g, inst.d, u, nil, (*Game).swapOn))
				sameBR(t, inst.name+" exact", e, oracle(g, inst.d, u, nil, (*Game).exactOn))
			}
		}
	}
}

// TestPropertyPooledScanAcrossGenerators pins the full pruning
// machinery — tier bounds, budget seeding, and the candidate memo of
// pool-owned Deviators past the stability hysteresis — against the
// oracle, on every generator family. Each pooled responder runs twice:
// the second scan is served from the memo and must agree byte for byte
// as well.
func TestPropertyPooledScanAcrossGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7105))
	for _, inst := range generatorCorpus(rng) {
		g := GameOf(inst.d, SUM)
		pool := NewCachePool(g, 0)
		for u := 0; u < g.N(); u++ {
			dv := pool.Acquire(inst.d, u)
			dv.stable = 4
			if !dv.HasCache() {
				t.Fatalf("%s: pool refused u=%d", inst.name, u)
			}
			gRef := oracle(g, inst.d, u, nil, (*Game).greedyOn)
			for pass := 0; pass < 2; pass++ {
				sameBR(t, inst.name+" pooled greedy", g.greedyOn(dv, inst.d), gRef)
			}
			sameBR(t, inst.name+" pooled swap", g.swapOn(dv, inst.d), oracle(g, inst.d, u, nil, (*Game).swapOn))
			dv.Release()
		}
		pool.Close()
	}
}

// TestPropertyEvalBoundedSound pins the EvalBounded contract on every
// generator family: pruned implies the true cost strictly exceeds the
// bound; not pruned implies the oracle's exact cost.
func TestPropertyEvalBoundedSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7102))
	for _, inst := range generatorCorpus(rng) {
		g := GameOf(inst.d, SUM)
		n := g.N()
		for u := 0; u < n; u++ {
			dv := NewDeviator(g, inst.d, u)
			if !dv.EnsureCache(1 << 40) {
				t.Fatalf("%s: cache refused", inst.name)
			}
			ref := NewDeviator(g, inst.d, u)
			for k := 0; k <= 3 && k <= n-1; k++ {
				s := randomStrategy(n, u, k, rng)
				want := ref.Eval(s)
				for _, bound := range []int64{0, want - 1, want, want + 1, 1 << 40} {
					c, pruned := dv.EvalBounded(s, bound)
					if pruned {
						if want <= bound {
							t.Fatalf("%s u=%d s=%v: pruned although cost %d <= bound %d",
								inst.name, u, s, want, bound)
						}
						continue
					}
					if c != want {
						t.Fatalf("%s u=%d s=%v: bounded cost %d, Eval %d", inst.name, u, s, c, want)
					}
				}
			}
			dv.Release()
		}
	}
}

// TestSumKernelColMinRepair drives a pooled SUM Deviator through a
// sequence of rewires and checks that the tier suffix bounds built over
// its inMin stay sound lower bounds of every candidate's true
// contribution suffix (the invariant all pruning rests on; the test
// keeps the name of the column-min floor the bounds once started
// from), and that responders on the synced pool still match the oracle
// exactly.
func TestSumKernelColMinRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(7103))
	g := UniformGame(24, 2, SUM)
	n := g.N()
	d := graph.RandomOutDigraph(g.Budgets, rng)
	d.StartJournal(0)
	pool := NewCachePool(g, 0)
	defer pool.Close()
	for step := 0; step < 12; step++ {
		// Rewire a random player, acquire a random other player.
		mover := rng.Intn(n)
		d.SetOut(mover, randomStrategy(n, mover, g.Budgets[mover], rng))
		pool.Invalidate()
		u := rng.Intn(n)
		dv := pool.Acquire(d, u)
		br := g.greedyOn(dv, d)
		dv.fillSumBounds(dv.inMin)
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			suf := dv.sufFor(dv.inMin, v)
			row, off := dv.row(v)
			var tail int64
			for w := n - 1; w >= 0; w-- {
				m := min(dv.inMin[w], row[w]+off)
				if m < graph.InfDist {
					tail += int64(m) + 1
				} else {
					tail += dv.cinf
				}
				if suf[w] > tail {
					t.Fatalf("step %d u=%d candidate %d: bound %d above the true suffix %d at %d",
						step, u, v, suf[w], tail, w)
				}
			}
		}
		dv.Release()
		sameBR(t, "pooled greedy after sync", br, oracle(g, d, u, nil, (*Game).greedyOn))
	}
}

// TestWeightedKernelEquivalence pins the weighted prefix-stack kernel
// against the uncached weighted evaluation (one graph rewire plus BFS
// per candidate), including after folds change the weight vector.
func TestWeightedKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7104))
	for trial := 0; trial < 6; trial++ {
		budgets := make([]int, 10)
		for i := range budgets {
			budgets[i] = 1 + rng.Intn(2)
		}
		d := graph.RandomOutDigraph(budgets, rng)
		wg := NewVertexWeighted(d)
		// Shift some weight around like the folding proofs do.
		for i := 0; i < 3; i++ {
			from, to := rng.Intn(10), rng.Intn(10)
			if from != to && wg.W[from] > 0 {
				wg.W[to] += wg.W[from]
				wg.W[from] = 0
			}
		}
		for u := 0; u < d.N(); u++ {
			if !wg.Alive(u) {
				continue
			}
			var off BestResponse
			var errOff error
			on, errOn := wg.WeightedBestResponse(u, 0)
			withoutCache(func() { off, errOff = wg.WeightedBestResponse(u, 0) })
			if errOn != nil || errOff != nil {
				t.Fatal(errOn, errOff)
			}
			sameBR(t, "weighted", on, off)
		}
	}
}
