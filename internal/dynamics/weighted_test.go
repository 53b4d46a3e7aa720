package dynamics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// A weighted run must be invariant across the whole engine knob matrix
// and across pooled vs plain responders: the weighted cache tier, the
// Δ-stepping fill, the stamps ladder and the SUM kernel select
// implementations, never trajectories.
func TestRunWeightedKnobMatrix(t *testing.T) {
	g := core.UniformGame(20, 2, core.SUM)
	wts := graph.NewWeights(20, 11, 7)
	start := RandomProfile(g, rand.New(rand.NewSource(3)))

	run := func(pooled bool) Result {
		opts := Options{
			Responder:        core.WeightedGreedyResponder(wts),
			Weights:          wts,
			MaxRounds:        40,
			RecordTrajectory: true,
		}
		if pooled {
			opts.Cached = core.GreedyDeviatorResponder
		}
		res, err := Run(g, start, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b Result, label string) {
		t.Helper()
		if a.Moves != b.Moves || a.Rounds != b.Rounds || a.Converged != b.Converged ||
			!a.Final.Equal(b.Final) || fmt.Sprint(a.Trajectory) != fmt.Sprint(b.Trajectory) {
			t.Fatalf("%s diverged:\nref %+v\ngot %+v", label, a, b)
		}
	}

	ref := run(true)
	if !ref.Converged {
		t.Fatalf("weighted dynamics did not converge: %+v", ref)
	}
	same(ref, run(false), "plain responder")
	for _, wstep := range []string{"1", "0"} {
		for _, stamps := range []string{"1", "0"} {
			for _, kernel := range []string{"1", "0"} {
				t.Setenv("BBNCG_WSTEP", wstep)
				t.Setenv("BBNCG_STAMPS", stamps)
				t.Setenv("BBNCG_SUMKERNEL", kernel)
				same(ref, run(true), fmt.Sprintf("wstep=%s stamps=%s kernel=%s", wstep, stamps, kernel))
			}
		}
	}
	t.Setenv("BBNCG_INCREMENTAL", "0")
	same(ref, run(true), "incremental off")
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
