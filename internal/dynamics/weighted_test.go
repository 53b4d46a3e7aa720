package dynamics

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// A weighted run must match the oracle (per-candidate Dijkstra, no
// pool) on plain and pooled responders: the weighted cache tier, the
// Dijkstra fill, the pool ladder and the SUM kernel select
// implementations, never trajectories.
func TestRunWeightedKnobMatrix(t *testing.T) {
	g := core.UniformGame(20, 2, core.SUM)
	wts := graph.NewWeights(20, 11, 7)
	start := RandomProfile(g, rand.New(rand.NewSource(3)))
	opts := Options{
		Responder:        core.WeightedGreedyResponder(wts),
		Weights:          wts,
		MaxRounds:        40,
		RecordTrajectory: true,
	}
	ref := runOracle(t, Run, g, start, opts)
	if !ref.Converged {
		t.Fatalf("weighted dynamics did not converge: %+v", ref)
	}
	for _, c := range []struct {
		label  string
		cached core.DeviatorResponder
	}{
		{"plain responder", nil},
		{"pooled", core.GreedyDeviatorResponder},
	} {
		o := opts
		o.Cached = c.cached
		res, err := Run(g, start, o)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, c.label, res, ref)
	}
}

// A weighted greedy run that cycles must follow the oracle into the
// cycle: the pool keeps repairing through every move of the loop, and
// DetectLoops stops both runs at the same repeated profile. n=32, b=2,
// weights in [1,16] at seed 173 enter a 2-cycle after 46 moves; it is
// the only looping instance among seeds 0–200 at n ∈ {16, 32, 48},
// b ∈ {1, 2, 3} and maxW ∈ {2, 4, 16, 64}.
func TestRunWeightedLoopMatchesOracle(t *testing.T) {
	const n, seed = 32, 173
	g := core.UniformGame(n, 2, core.SUM)
	wts := graph.NewWeights(n, seed, 16)
	start := RandomProfile(g, rand.New(rand.NewSource(seed)))
	opts := Options{
		Responder:        core.WeightedGreedyResponder(wts),
		Cached:           core.GreedyDeviatorResponder,
		Weights:          wts,
		DetectLoops:      true,
		MaxRounds:        1000,
		RecordTrajectory: true,
	}
	got := mustRun(t, Run, g, start, opts)
	if !got.Loop || got.LoopLength != 2 || got.Moves != 46 {
		t.Fatalf("want the 2-cycle after 46 moves, got loop=%v length=%d moves=%d rounds=%d",
			got.Loop, got.LoopLength, got.Moves, got.Rounds)
	}
	assertSameResult(t, "pooled weighted loop", got, runOracle(t, Run, g, start, opts))
}

// An externally supplied weighted pool must survive across runs the way
// run-owned pools survive across rounds, and the simultaneous engine
// must record the weighted trajectory metric.
func TestRunWeightedExternalPoolAndSimultaneous(t *testing.T) {
	g := core.UniformGame(16, 2, core.SUM)
	wts := graph.NewWeights(16, 4, 5)
	start := RandomProfile(g, rand.New(rand.NewSource(6)))
	pool := core.NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	opts := Options{
		Responder: core.WeightedGreedyResponder(wts),
		Cached:    core.GreedyDeviatorResponder,
		Weights:   wts,
		Pool:      pool,
		MaxRounds: 40,
	}
	var first Result
	for i := 0; i < 3; i++ {
		res, err := Run(g, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res.Moves != first.Moves || !res.Final.Equal(first.Final) {
			t.Fatalf("pooled weighted run %d diverged: %+v vs %+v", i, res, first)
		}
	}
	if st := pool.Stats(); st.Acquires-st.Hits-st.Unpooled != int64(g.N()) {
		t.Fatalf("external weighted pool rebuilt entries across runs: %+v", st)
	}

	sOpts := opts
	sOpts.Pool = nil
	sOpts.RecordTrajectory = true
	sOpts.MaxRounds = 5
	res, err := RunSimultaneous(g, start, sOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("no weighted trajectory recorded")
	}
	if res.Trajectory[0] != g.WeightedSocialCost(res.Final, wts) && !res.Loop {
		// The last trajectory entry is the final profile's weighted
		// diameter unless the run broke on a loop.
		if res.Trajectory[len(res.Trajectory)-1] != g.WeightedSocialCost(res.Final, wts) {
			t.Fatalf("trajectory %v does not end at the weighted social cost of the final profile", res.Trajectory)
		}
	}
}

// An external pool must have been built for the run's game over the
// run's weights: a pool whose entries evaluate other costs steers the
// dynamics silently off the oracle's course, and one sized for another
// n indexes out of range. Every engine refuses such a pool up front.
func TestRunRejectsMismatchedExternalPool(t *testing.T) {
	const n = 20
	g := core.UniformGame(n, 2, core.SUM)
	wts := graph.NewWeights(n, 11, 7)
	start := RandomProfile(g, rand.New(rand.NewSource(3)))
	opts := Options{
		Responder: core.WeightedGreedyResponder(wts),
		Cached:    core.GreedyDeviatorResponder,
		Weights:   wts,
		MaxRounds: 40,
	}
	for _, c := range []struct {
		label string
		pool  *core.CachePool
		wts   *graph.Weights
	}{
		{"unweighted pool, weighted run", core.NewCachePool(g, 0), wts},
		{"other weights", core.NewWeightedCachePool(g, 0, graph.NewWeights(n, 12, 7)), wts},
		{"weighted pool, unweighted run", core.NewWeightedCachePool(g, 0, wts), nil},
		{"other version", core.NewWeightedCachePool(core.UniformGame(n, 2, core.MAX), 0, wts), wts},
		{"other budgets", core.NewWeightedCachePool(core.UniformGame(n, 1, core.SUM), 0, wts), wts},
		{"other n", core.NewWeightedCachePool(core.UniformGame(n+1, 2, core.SUM), 0, wts), wts},
	} {
		o := opts
		o.Pool, o.Weights = c.pool, c.wts
		if c.wts == nil {
			o.Responder = core.GreedyResponder
		}
		if _, err := Run(g, start, o); err == nil {
			t.Errorf("%s: Run accepted the pool", c.label)
		}
		if _, err := RunSimultaneous(g, start, o); err == nil {
			t.Errorf("%s: RunSimultaneous accepted the pool", c.label)
		}
		if _, _, err := WelfareTrace(g, start, o); err == nil {
			t.Errorf("%s: WelfareTrace accepted the pool", c.label)
		}
		c.pool.Close()
	}
	// A pool built over an equal game (not the same *Game) and the same
	// weights is accepted and follows the oracle.
	pool := core.NewWeightedCachePool(core.UniformGame(n, 2, core.SUM), 0, wts)
	defer pool.Close()
	o := opts
	o.Pool = pool
	assertSameResult(t, "matching external pool", mustRun(t, Run, g, start, o), runOracle(t, Run, g, start, opts))
}
