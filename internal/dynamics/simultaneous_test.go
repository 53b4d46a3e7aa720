package dynamics

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestSimultaneousConvergesOnEquilibrium(t *testing.T) {
	d := graph.StarGraph(5)
	g := core.GameOf(d, core.SUM)
	res, err := RunSimultaneous(g, d, Options{Responder: core.ExactResponder(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Moves != 0 {
		t.Fatalf("star simultaneous run = %+v", res)
	}
}

func TestSimultaneousTerminatesWithVerdict(t *testing.T) {
	// From random starts, simultaneous dynamics must either converge or
	// report an exact loop within the round budget on these tiny games.
	rng := rand.New(rand.NewSource(8))
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		g := core.UniformGame(6, 1, ver)
		verdicts := 0
		for trial := 0; trial < 10; trial++ {
			res, err := RunSimultaneous(g, RandomProfile(g, rng), Options{
				Responder: core.ExactResponder(0),
				MaxRounds: 400,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged || res.Loop {
				verdicts++
			}
			if res.Converged {
				dev, err := g.VerifyNash(res.Final, 0)
				if err != nil {
					t.Fatal(err)
				}
				if dev != nil {
					t.Fatalf("%v: simultaneous fixed point not Nash: %v", ver, dev)
				}
			}
		}
		if verdicts == 0 {
			t.Fatalf("%v: no verdict in any trial", ver)
		}
	}
}

func TestSimultaneousValidation(t *testing.T) {
	d := graph.PathGraph(4)
	g := core.GameOf(d, core.SUM)
	if _, err := RunSimultaneous(g, d, Options{}); err == nil {
		t.Fatal("missing responder accepted")
	}
	wrong := core.MustGame([]int{2, 1, 1, 0}, core.SUM)
	if _, err := RunSimultaneous(wrong, d, Options{Responder: core.ExactResponder(0)}); err == nil {
		t.Fatal("realization mismatch accepted")
	}
}

func TestSimultaneousCanLoop(t *testing.T) {
	// Forced oscillation: both players of a 3-vertex game flip between
	// two strategies in lockstep; the loop detector must fire.
	d := graph.NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 0)
	g := core.MustGame([]int{1, 1, 0}, core.SUM)
	flip := func(_ *core.Game, cur *graph.Digraph, u int) core.BestResponse {
		if u == 2 {
			return core.BestResponse{Strategy: nil, Cost: 0, Current: 0}
		}
		other := 1 - u
		next := []int{other}
		if cur.HasArc(u, other) {
			next = []int{2}
		}
		return core.BestResponse{Strategy: next, Cost: 0, Current: 1}
	}
	res, err := RunSimultaneous(g, d, Options{Responder: flip, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Loop || res.LoopLength != 2 {
		t.Fatalf("expected 2-loop, got %+v", res)
	}
}

func TestWelfareTrace(t *testing.T) {
	d := graph.PathGraph(7)
	g := core.GameOf(d, core.SUM)
	trace, res, err := WelfareTrace(g, d, Options{Responder: core.ExactResponder(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("welfare trace run did not converge: %+v", res)
	}
	if len(trace) != res.Rounds+1 {
		t.Fatalf("trace length %d for %d rounds", len(trace), res.Rounds)
	}
	// Selfish improvement from a path should also improve total welfare
	// here (not guaranteed in general, asserted only for this instance).
	if trace[len(trace)-1] >= trace[0] {
		t.Fatalf("welfare did not improve: %v", trace)
	}
}

// A weighted WelfareTrace records the weighted total cost — the
// welfare the weighted dynamics actually optimise — pooled or not.
func TestWelfareTraceWeighted(t *testing.T) {
	const n = 20
	g := core.UniformGame(n, 2, core.SUM)
	wts := graph.NewWeights(n, 11, 7)
	start := RandomProfile(g, rand.New(rand.NewSource(3)))
	total := func(d *graph.Digraph) int64 {
		var sum int64
		for _, c := range g.WeightedAllCosts(d, wts) {
			sum += c
		}
		return sum
	}
	for _, cached := range []core.DeviatorResponder{nil, core.GreedyDeviatorResponder} {
		trace, res, err := WelfareTrace(g, start, Options{
			Responder: core.WeightedGreedyResponder(wts),
			Cached:    cached,
			Weights:   wts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || len(trace) != res.Rounds+1 {
			t.Fatalf("pooled=%v: %d trace entries for %+v", cached != nil, len(trace), res)
		}
		if trace[0] != total(start) {
			t.Fatalf("pooled=%v: trace starts at %d, want the weighted total %d", cached != nil, trace[0], total(start))
		}
		if last, want := trace[len(trace)-1], total(res.Final); last != want {
			t.Fatalf("pooled=%v: trace ends at %d, want the weighted total %d", cached != nil, last, want)
		}
	}
}

func TestWelfareTraceValidation(t *testing.T) {
	d := graph.PathGraph(4)
	g := core.GameOf(d, core.SUM)
	if _, _, err := WelfareTrace(g, d, Options{}); err == nil {
		t.Fatal("missing responder accepted")
	}
}
