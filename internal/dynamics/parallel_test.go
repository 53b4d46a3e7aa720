package dynamics

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// Options.Parallel must be a pure performance knob: every observable of a
// run — final graph, rounds, moves, convergence/loop flags, trajectory —
// must match the sequential engine exactly.

// forceWorkers raises GOMAXPROCS so the speculative and pooled paths are
// exercised (and race-checked) even on single-vCPU CI runners, where the
// engine would otherwise skip speculation.
func forceWorkers(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRunParallelMatchesSequential(t *testing.T) {
	forceWorkers(t)
	for _, version := range []core.Version{core.SUM, core.MAX} {
		for _, responder := range []struct {
			name string
			r    core.Responder
		}{{"greedy", core.GreedyResponder}, {"swap", core.SwapResponder}} {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				n := 4 + rng.Intn(16)
				budgets := make([]int, n)
				for i := range budgets {
					budgets[i] = rng.Intn(3)
				}
				g := core.MustGame(budgets, version)
				start := RandomProfile(g, rng)
				base := Options{Responder: responder.r, MaxRounds: 30, DetectLoops: true, RecordTrajectory: true}
				seq, err := Run(g, start, base)
				if err != nil {
					t.Fatal(err)
				}
				par := base
				par.Parallel = true
				got, err := Run(g, start, par)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, responder.name, seq, got)
			}
		}
	}
}

func TestRunSimultaneousParallelMatchesSequential(t *testing.T) {
	forceWorkers(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(12)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = rng.Intn(2)
		}
		g := core.MustGame(budgets, core.SUM)
		start := RandomProfile(g, rng)
		base := Options{Responder: core.GreedyResponder, MaxRounds: 30, RecordTrajectory: true}
		seq, err := RunSimultaneous(g, start, base)
		if err != nil {
			t.Fatal(err)
		}
		par := base
		par.Parallel = true
		got, err := RunSimultaneous(g, start, par)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "simultaneous", seq, got)
	}
}

func assertSameResult(t testing.TB, label string, seq, par Result) {
	t.Helper()
	if seq.Converged != par.Converged || seq.Loop != par.Loop || seq.LoopLength != par.LoopLength ||
		seq.Rounds != par.Rounds || seq.Moves != par.Moves {
		t.Fatalf("%s: sequential %+v, parallel %+v", label, seq, par)
	}
	if !seq.Final.Equal(par.Final) {
		t.Fatalf("%s: final graphs differ:\n%v\n%v", label, seq.Final, par.Final)
	}
	if len(seq.Trajectory) != len(par.Trajectory) {
		t.Fatalf("%s: trajectory lengths differ: %d vs %d", label, len(seq.Trajectory), len(par.Trajectory))
	}
	for i := range seq.Trajectory {
		if seq.Trajectory[i] != par.Trajectory[i] {
			t.Fatalf("%s: trajectory[%d] = %d vs %d", label, i, seq.Trajectory[i], par.Trajectory[i])
		}
	}
}
