package dynamics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// runOracle runs engine on the reference oracle: no Cached responder
// and core.DefaultCacheBudget 0, so every candidate costs one plain BFS
// (Dijkstra under weights). Pooled runs must reproduce it exactly.
func runOracle(t testing.TB, engine func(*core.Game, *graph.Digraph, Options) (Result, error), g *core.Game, start *graph.Digraph, opts Options) Result {
	t.Helper()
	defer func(b int64) { core.DefaultCacheBudget = b }(core.DefaultCacheBudget)
	core.DefaultCacheBudget = 0
	opts.Cached, opts.Pool = nil, nil
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
// derivation, resync, round memo — must reproduce the oracle
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

// Pooled dynamics over a run-owned pool too small to hold every
// player: the first players admitted keep repaired entries, the rest
// take the over-budget plain-Deviator path, and the two interleave in
// every round of both engines. Results must match the oracle exactly.
// (The name is kept so the test's ID stays stable.)
func TestIncrementalParallelRace(t *testing.T) {
	n := 16
	g := core.UniformGame(n, 2, core.MAX)
	start := RandomProfile(g, rand.New(rand.NewSource(11)))
	// Room for only 5 of 16 matrices.
	budget := 5 * 4 * int64(n) * int64(n+1)
	inc := Options{
		Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder,
		PoolBudget: budget, MaxRounds: 60, DetectLoops: true,
	}
	assertSameResult(t, "Run(pooled)", mustRun(t, Run, g, start, inc), runOracle(t, Run, g, start, inc))
	assertSameResult(t, "RunSimultaneous(pooled)", mustRun(t, RunSimultaneous, g, start, inc), runOracle(t, RunSimultaneous, g, start, inc))
}

// assertSameResult fails unless got and want agree on every observable
// of a run: flags, counts, final graph and trajectory.
func assertSameResult(t testing.TB, label string, got, want Result) {
	t.Helper()
	if got.Converged != want.Converged || got.Loop != want.Loop || got.LoopLength != want.LoopLength ||
		got.Rounds != want.Rounds || got.Moves != want.Moves {
		t.Fatalf("%s: got %+v, want %+v", label, got, want)
	}
	if !got.Final.Equal(want.Final) {
		t.Fatalf("%s: final graphs differ:\ngot  %v\nwant %v", label, got.Final, want.Final)
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Fatalf("%s: trajectory lengths differ: got %d, want %d", label, len(got.Trajectory), len(want.Trajectory))
	}
	for i := range got.Trajectory {
		if got.Trajectory[i] != want.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %d, want %d", label, i, got.Trajectory[i], want.Trajectory[i])
		}
	}
}
