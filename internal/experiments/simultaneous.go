package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/runner"
	"repro/internal/sweep"
)

type simulCell struct {
	ver    core.Version
	n      int
	trials int
}

type simulRow struct {
	Version     string `json:"version"`
	N           int    `json:"n"`
	Trials      int    `json:"trials"`
	SeqConv     int    `json:"seqConv"`
	SeqLoop     int    `json:"seqLoop"`
	SeqTimeouts int    `json:"seqTimeouts"`
	SimConv     int    `json:"simConv"`
	SimLoop     int    `json:"simLoop"`
	SimMisses   int    `json:"simMisses"`
	MaxLoopLen  int    `json:"maxLoopLen"`
}

func simultaneousJob(effort Effort, seed int64) runner.Job {
	ns := []int{5, 6}
	trials := 10
	if effort == Full {
		ns = []int{5, 6, 8, 10, 12}
		trials = 25
	}
	var points []runner.Point
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, n := range ns {
			points = append(points, runner.Point{Exp: "simultaneous",
				Key:  fmt.Sprintf("ver=%v,n=%d,trials=%d", ver, n, trials),
				Seed: seed, Data: simulCell{ver: ver, n: n, trials: trials}})
		}
	}
	return runner.Job{Exp: "simultaneous", Points: points, Eval: evalSimultaneous}
}

// evalSimultaneous feeds the same random starting profiles to
// sequential and simultaneous dynamics for one (version, n) cell.
func evalSimultaneous(p runner.Point) (any, error) {
	c := p.Data.(simulCell)
	rng := rand.New(rand.NewSource(p.Seed + int64(c.n)*1001 + int64(c.ver)))
	g := core.UniformGame(c.n, 1, c.ver)
	r := simulRow{Version: c.ver.String(), N: c.n, Trials: c.trials}
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for trial := 0; trial < c.trials; trial++ {
		start := dynamics.RandomProfile(g, rng)
		seq, err := dynamics.Run(g, start, dynamics.Options{
			Responder:   core.ExactResponder(0),
			Cached:      core.ExactDeviatorResponder(0),
			DetectLoops: true,
			MaxRounds:   800,
			Pool:        pool,
		})
		if err != nil {
			return nil, err
		}
		switch {
		case seq.Converged:
			r.SeqConv++
		case seq.Loop:
			r.SeqLoop++
		default:
			r.SeqTimeouts++
		}
		sim, err := dynamics.RunSimultaneous(g, start, dynamics.Options{
			Responder: core.ExactResponder(0),
			Cached:    core.ExactDeviatorResponder(0),
			MaxRounds: 800,
			Pool:      pool,
		})
		if err != nil {
			return nil, err
		}
		switch {
		case sim.Converged:
			r.SimConv++
		case sim.Loop:
			r.SimLoop++
			if sim.LoopLength > r.MaxLoopLen {
				r.MaxLoopLen = sim.LoopLength
			}
		default:
			r.SimMisses++
		}
	}
	return r, nil
}

func simultaneousTable(rows []simulRow) *sweep.Table {
	t := sweep.NewTable("Section 8: sequential vs simultaneous best-response dynamics (unit budgets)",
		"version", "n", "trials", "seq-converged", "seq-loops", "sim-converged", "sim-loops", "max-sim-loop-len")
	for _, r := range rows {
		t.Addf(r.Version, r.N, r.Trials, r.SeqConv, r.SeqLoop, r.SimConv, r.SimLoop, r.MaxLoopLen)
	}
	return t
}

// SimultaneousContrast compares sequential and simultaneous-move
// best-response dynamics (Section 8 context): sequential dynamics
// converged in every experiment in this repo, while simultaneous moves
// let players chase each other and cycle. Loop lengths are exact
// (profile-confirmed).
func SimultaneousContrast(effort Effort, seed int64) (*sweep.Table, error) {
	rows, err := runRows[simulRow](simultaneousJob(effort, seed))
	if err != nil {
		return nil, err
	}
	return simultaneousTable(rows), nil
}
