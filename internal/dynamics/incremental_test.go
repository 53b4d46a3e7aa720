package dynamics

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// runOracle runs engine on the reference oracle: no Cached responder
// and core.DefaultCacheBudget 0, so every candidate costs one plain BFS
// (Dijkstra under weights) on a sequential engine. Pooled runs must
// reproduce it exactly.
func runOracle(t testing.TB, engine func(*core.Game, *graph.Digraph, Options) (Result, error), g *core.Game, start *graph.Digraph, opts Options) Result {
	t.Helper()
	defer func(b int64) { core.DefaultCacheBudget = b }(core.DefaultCacheBudget)
	core.DefaultCacheBudget = 0
	opts.Cached, opts.Pool, opts.Parallel = nil, nil, false
	res, err := engine(g, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// responderPairs are the built-in plain/pooled responder pairs the
// pooled-vs-oracle matrices run.
var responderPairs = []struct {
	name   string
	plain  core.Responder
	cached core.DeviatorResponder
}{
	{"exact", core.ExactResponder(0), core.ExactDeviatorResponder(0)},
	{"greedy", core.GreedyResponder, core.GreedyDeviatorResponder},
	{"swap", core.SwapResponder, core.SwapDeviatorResponder},
}

// Incremental (pooled) dynamics — stamp skips, journal delta repair,
// derivation, resync, round memo, prefetch — must reproduce the oracle
// exactly: same moves, same rounds, same final profile, for both
// engines, both versions and every built-in responder pair.
func TestIncrementalDynamicsMatchesRefill(t *testing.T) {
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, p := range responderPairs {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed=%d", ver, p.name, seed), func(t *testing.T) {
					g := core.UniformGame(10, 1, ver)
					start := RandomProfile(g, rand.New(rand.NewSource(seed)))
					opts := Options{Responder: p.plain, Cached: p.cached, DetectLoops: true, MaxRounds: 200}
					assertSameResult(t, "Run", mustRun(t, Run, g, start, opts), runOracle(t, Run, g, start, opts))
					assertSameResult(t, "RunSimultaneous", mustRun(t, RunSimultaneous, g, start, opts), runOracle(t, RunSimultaneous, g, start, opts))
				})
			}
		}
	}
}

// mustRun runs engine and fails the test on error.
func mustRun(t testing.TB, engine func(*core.Game, *graph.Digraph, Options) (Result, error), g *core.Game, start *graph.Digraph, opts Options) Result {
	t.Helper()
	res, err := engine(g, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The race test of the pooled speculative path: many parallel rounds
// over a pool too small to hold every player, so acquisitions, repairs,
// pins and evictions interleave with concurrent responder execution.
// Under -race this proves round-scoped matrices are never recycled while
// a worker still reads them (the Deviator.Release-into-pool fix); the
// result must also match the sequential refill path exactly.
func TestIncrementalParallelRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4)
	}
	n := 16
	g := core.UniformGame(n, 2, core.MAX)
	start := RandomProfile(g, rand.New(rand.NewSource(11)))
	// Room for only 5 of 16 matrices: constant eviction pressure.
	budget := 5 * 4 * int64(n) * int64(n+1)
	inc := Options{
		Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder,
		Parallel: true, PoolBudget: budget, MaxRounds: 60, DetectLoops: true,
	}
	got, err := Run(g, start, inc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, start, Options{Responder: core.GreedyResponder, MaxRounds: 60, DetectLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "Run(parallel,pooled)", got, want)

	gotSim, err := RunSimultaneous(g, start, inc)
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := RunSimultaneous(g, start, Options{Responder: core.GreedyResponder, MaxRounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "RunSimultaneous(parallel,pooled)", gotSim, wantSim)
}
