package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bbc"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/runner"
	"repro/internal/sweep"
)

type directedCell struct {
	n, b, trials int
}

type directedRow struct {
	N          int `json:"n"`
	B          int `json:"b"`
	Trials     int `json:"trials"`
	UndConv    int `json:"undConv"`
	UndLoop    int `json:"undLoop"`
	UndNoVer   int `json:"undNoVer"`
	DirConv    int `json:"dirConv"`
	DirLoop    int `json:"dirLoop"`
	DirNoVer   int `json:"dirNoVer"`
	DirMaxLoop int `json:"dirMaxLoop"`
}

func directedJob(effort Effort, seed int64) runner.Job {
	type pt struct{ n, b int }
	pts := []pt{{4, 1}, {5, 1}, {5, 2}}
	trials := 10
	if effort == Full {
		pts = []pt{{4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {5, 2}, {6, 2}, {7, 2}}
		trials = 25
	}
	points := make([]runner.Point, len(pts))
	for i, p := range pts {
		points[i] = runner.Point{Exp: "directed",
			Key:  fmt.Sprintf("n=%d,B=%d,trials=%d", p.n, p.b, trials),
			Seed: seed, Data: directedCell{n: p.n, b: p.b, trials: trials}}
	}
	return runner.Job{Exp: "directed", Points: points, Eval: evalDirected}
}

// evalDirected feeds the same starting profiles to the bidirectional
// and the directed engines for one (n, B) cell, so differences are
// attributable to link semantics alone.
func evalDirected(p runner.Point) (any, error) {
	c := p.Data.(directedCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(c.n)*271 + int64(c.b)))
	und := core.UniformGame(c.n, c.b, core.SUM)
	dir := bbc.UniformGame(c.n, c.b)
	r := directedRow{N: c.n, B: c.b, Trials: c.trials}
	pool := core.NewCachePool(und, 0)
	defer pool.Close()
	for trial := 0; trial < c.trials; trial++ {
		start := dynamics.RandomProfile(und, rng)
		uRes, err := dynamics.Run(und, start, dynamics.Options{
			Responder:   core.ExactResponder(0),
			Cached:      core.ExactDeviatorResponder(0),
			DetectLoops: true,
			MaxRounds:   600,
			Pool:        pool,
		})
		if err != nil {
			return nil, err
		}
		switch {
		case uRes.Converged:
			r.UndConv++
		case uRes.Loop:
			r.UndLoop++
		default:
			r.UndNoVer++
		}
		dRes, err := dir.Run(start, 600)
		if err != nil {
			return nil, err
		}
		switch {
		case dRes.Converged:
			r.DirConv++
		case dRes.Loop:
			r.DirLoop++
			if dRes.LoopLength > r.DirMaxLoop {
				r.DirMaxLoop = dRes.LoopLength
			}
		default:
			r.DirNoVer++
		}
	}
	return r, nil
}

func directedTable(rows []directedRow) *sweep.Table {
	t := sweep.NewTable("Directed (Laoutaris et al.) vs bidirectional (this paper) dynamics, uniform budgets, SUM",
		"n", "B", "trials", "bidir-converged", "bidir-loops", "dir-converged", "dir-loops", "dir-max-loop-len")
	for _, r := range rows {
		t.Addf(r.N, r.B, r.Trials, r.UndConv, r.UndLoop, r.DirConv, r.DirLoop, r.DirMaxLoop)
	}
	return t
}

// DirectedContrast compares the convergence behaviour of this paper's
// bidirectional game against its ancestor, the directed BBC game of
// Laoutaris et al. (Section 1.1). Laoutaris et al. proved directed
// best-response dynamics can cycle; the bidirectional game converged in
// every run of this repo. The same starting profiles are fed to both
// engines so differences are attributable to link semantics alone.
func DirectedContrast(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[directedRow](directedJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return directedTable(rows), nil
}
