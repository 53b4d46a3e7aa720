package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The weighted-dyn sweep layers seeded arc weights over the robustness
// overlay families and drives greedy best-response dynamics on the
// weighted SUM game — the latency-weighted-overlay scenario the ROADMAP
// calls for, running end to end on the weighted cache tier (Dijkstra
// fill, incremental weighted repair, stamps). maxW=1 is the unit-weight
// bridge: its rows must coincide with what the unweighted engine would
// report, which the property suites pin at every layer below.

type weightedDynCell struct {
	family    string
	maxW      int32
	n, trials int
}

type weightedDynRow struct {
	Family    string  `json:"family"`
	MaxW      int32   `json:"maxW"`
	N         int     `json:"n"`
	Trials    int     `json:"trials"`
	Converged int     `json:"converged"`
	WDiams    []int64 `json:"wdiams"`
	Rounds    []int64 `json:"rounds"`
}

// weightedDynMaxWs are the weight ranges swept per family: unit (the
// unweighted bridge), narrow and wide.
var weightedDynMaxWs = []int32{1, 4, 16}

func weightedDynJob(effort Effort, seed int64) runner.Job {
	n := 14
	trials := 3
	if effort == Full {
		n = 24
		trials = 8
	}
	var points []runner.Point
	for _, f := range robustFamilies {
		for _, maxW := range weightedDynMaxWs {
			points = append(points, runner.Point{Exp: "weighted-dyn",
				Key:  fmt.Sprintf("family=%s,maxW=%d,n=%d,trials=%d", f, maxW, n, trials),
				Seed: seed, Data: weightedDynCell{family: f, maxW: maxW, n: n, trials: trials}})
		}
	}
	return runner.Job{Exp: "weighted-dyn", Points: points, Eval: evalWeightedDyn}
}

// evalWeightedDyn drives weighted greedy dynamics from one (family,
// maxW) cell's random overlays and collects weighted equilibrium
// quality samples.
func evalWeightedDyn(p runner.Point) (any, error) {
	c := p.Data.(weightedDynCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(len(c.family)) + int64(c.maxW)<<8))
	r := weightedDynRow{Family: c.family, MaxW: c.maxW, N: c.n, Trials: c.trials}
	for trial := 0; trial < c.trials; trial++ {
		start, err := makeOverlay(c.family, c.n, rng)
		if err != nil {
			return nil, err
		}
		g := core.MustGame(graph.BudgetsOf(start), core.SUM)
		wts := graph.NewWeights(c.n, rng.Int63(), c.maxW)
		out, err := dynamics.Run(g, start, dynamics.Options{
			Responder:   core.WeightedGreedyResponder(wts),
			Cached:      core.GreedyDeviatorResponder,
			Weights:     wts,
			DetectLoops: true,
			MaxRounds:   300,
		})
		if err != nil {
			return nil, err
		}
		if !out.Converged {
			continue
		}
		r.Converged++
		r.WDiams = append(r.WDiams, g.WeightedSocialCost(out.Final, wts))
		r.Rounds = append(r.Rounds, int64(out.Rounds))
	}
	return r, nil
}

func weightedDynTable(rows []weightedDynRow) *sweep.Table {
	n := 0
	if len(rows) > 0 {
		n = rows[0].N
	}
	t := sweep.NewTable(
		fmt.Sprintf("Weighted dynamics: greedy responses on arc-weighted overlays (n=%d, SUM)", n),
		"start-family", "maxW", "trials", "converged", "weighted-diameter", "rounds")
	for _, r := range rows {
		t.Addf(r.Family, r.MaxW, r.Trials, r.Converged,
			stats.Summarize(r.WDiams).MeanStd(), stats.Summarize(r.Rounds).MeanStd())
	}
	return t
}

// WeightedDynamics sweeps weighted greedy dynamics across overlay
// families and weight ranges.
func WeightedDynamics(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[weightedDynRow](weightedDynJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return weightedDynTable(rows), nil
}
