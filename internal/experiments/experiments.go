// Package experiments implements the paper's evaluation artifacts as
// reusable functions: every cell of Table 1, Figures 1-3, and the
// auxiliary theorem checks (existence/PoS, the Theorem 2.1 reduction,
// the Theorem 7.2 connectivity dichotomy, and Section 8's convergence
// question). The CLI (cmd/bbncg) and the benchmark harness
// (bench_test.go) both call into this package, so the printed tables and
// the benchmarked work are the same code.
//
// The sweep experiments are factored into runner form — a deterministic
// point list, a pure per-point evaluator, and a renderer from stored
// values to tables (see spec.go) — so the CLI can checkpoint them into
// a results store and resume interrupted runs. The exported Table1*
// functions are thin wrappers that run their spec in memory.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// Effort scales experiment sizes: quick configurations for tests and
// benchmarks, full configurations for the CLI reproduction run.
type Effort int

const (
	// Quick keeps every instance small enough for exhaustive
	// verification in well under a second.
	Quick Effort = iota
	// Full runs the sweep ranges reported in EXPERIMENTS.md.
	Full
)

// name tags point keys whose evaluation depends on the effort level
// (trial counts, generation ranges), so Quick and Full results never
// alias in a store.
func (e Effort) name() string {
	if e == Full {
		return "full"
	}
	return "quick"
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ---------------------------------------------------------------------
// Table 1 [Trees, MAX]

type treesMAXRow struct {
	K        int     `json:"k"`
	N        int     `json:"n"`
	Diam     int64   `json:"diam"`
	PoA      float64 `json:"poa"`
	Verified bool    `json:"verified"`
}

func treesMAXJob(effort Effort) runner.Job {
	ks := []int{2, 3, 4, 6, 8}
	if effort == Full {
		ks = []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 40}
	}
	points := make([]runner.Point, len(ks))
	for i, k := range ks {
		points[i] = runner.Point{Exp: "table1-trees-max", Key: fmt.Sprintf("k=%d", k), Data: k}
	}
	return runner.Job{Exp: "table1-trees-max", Points: points, Eval: evalTreesMAX}
}

// evalTreesMAX verifies one spider (Theorem 3.2 / Figure 2) as a MAX
// equilibrium and measures its PoA ratio.
func evalTreesMAX(p runner.Point) (any, error) {
	k := p.Data.(int)
	d, budgets, err := construct.Spider(k)
	if err != nil {
		return nil, err
	}
	g := core.MustGame(budgets, core.MAX)
	dev, err := g.VerifyNash(d, 0)
	if err != nil {
		return nil, err
	}
	poa, err := analysis.PriceOfAnarchy(g, d)
	if err != nil {
		return nil, err
	}
	return treesMAXRow{K: k, N: d.N(), Diam: poa.EquilibriumDiameter, PoA: poa.Ratio, Verified: dev == nil}, nil
}

func treesMAXTable(rows []treesMAXRow) *sweep.Table {
	t := sweep.NewTable("Table 1 [Trees, MAX]: spider equilibria, PoA = Theta(n)",
		"k", "n", "eq-diameter", "2k(paper)", "PoA>=", "nash-verified")
	for _, r := range rows {
		t.Addf(r.K, r.N, r.Diam, construct.SpiderDiameter(r.K), r.PoA, yesNo(r.Verified))
	}
	return t
}

// Table1TreesMAX reproduces the Trees/MAX cell of Table 1: the spider of
// Theorem 3.2 (Figure 2) is a MAX equilibrium with diameter 2k = Theta(n)
// while the optimum stays O(1), so PoA = Theta(n). Equilibria are
// verified exactly (parallel enumeration) for every point.
func Table1TreesMAX(effort Effort) (*sweep.Table, error) {
	rows, err := runRows[treesMAXRow](treesMAXJob(effort))
	if err != nil {
		return nil, err
	}
	return treesMAXTable(rows), nil
}

// ---------------------------------------------------------------------
// Table 1 [Trees, SUM]

type treesSUMRow struct {
	K        int    `json:"k"`
	N        int    `json:"n"`
	Diam     int32  `json:"diam"`
	Mode     string `json:"mode"`
	Verified bool   `json:"verified"`
	IneqOK   bool   `json:"ineqOK"`
}

func treesSUMJob(effort Effort) runner.Job {
	ks := []int{1, 2, 3, 4}
	if effort == Full {
		ks = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	points := make([]runner.Point, len(ks))
	for i, k := range ks {
		points[i] = runner.Point{Exp: "table1-trees-sum", Key: fmt.Sprintf("k=%d", k), Data: k}
	}
	return runner.Job{Exp: "table1-trees-sum", Points: points, Eval: evalTreesSUM}
}

// evalTreesSUM verifies one perfect binary tree (Theorem 3.4) as a SUM
// equilibrium — exactly up to depth 5, swap-stability beyond — and runs
// the Theorem 3.3 subtree-weight audit.
func evalTreesSUM(p runner.Point) (any, error) {
	const exactLimit = 5
	k := p.Data.(int)
	d, budgets, err := construct.PerfectBinaryTree(k)
	if err != nil {
		return nil, err
	}
	g := core.MustGame(budgets, core.SUM)
	r := treesSUMRow{K: k, N: d.N(), Diam: graph.Diameter(d.Underlying())}
	var dev *core.Deviation
	if k <= exactLimit {
		r.Mode = "exact"
		dev, err = g.VerifyNash(d, 0)
	} else {
		r.Mode = "swap"
		dev, err = g.VerifySwapStable(d)
	}
	if err != nil {
		return nil, err
	}
	r.Verified = dev == nil
	audit, err := analysis.AuditTreeSumPath(d)
	if err != nil {
		return nil, err
	}
	r.IneqOK = audit.InequalityOK
	return r, nil
}

func treesSUMTable(rows []treesSUMRow) *sweep.Table {
	t := sweep.NewTable("Table 1 [Trees, SUM]: binary-tree equilibria, PoA = Theta(log n)",
		"k", "n", "eq-diameter", "2*log2(n+1)-2", "verified", "mode", "thm3.3-ineq")
	for _, r := range rows {
		bound := 2*int(math.Log2(float64(r.N+1))) - 2
		t.Addf(r.K, r.N, r.Diam, bound, yesNo(r.Verified), r.Mode, yesNo(r.IneqOK))
	}
	return t
}

// Table1TreesSUM reproduces the Trees/SUM cell: the perfect binary tree
// of Theorem 3.4 is a SUM equilibrium with diameter 2k = Theta(log n);
// Theorem 3.3 proves no tree equilibrium does asymptotically worse.
// Verification is exact up to n = 63 and swap-stability beyond.
func Table1TreesSUM(effort Effort) (*sweep.Table, error) {
	rows, err := runRows[treesSUMRow](treesSUMJob(effort))
	if err != nil {
		return nil, err
	}
	return treesSUMTable(rows), nil
}

// ---------------------------------------------------------------------
// Table 1 [All-Unit]

// UnitResult aggregates a unit-budget dynamics sweep cell.
type UnitResult struct {
	N          int
	Trials     int
	Converged  int
	Loops      int
	MaxDiam    int64
	MaxCycle   int
	AuditFails int
}

func unitJob(version core.Version, effort Effort, seed int64) runner.Job {
	ns := []int{5, 8, 12}
	trials := 6
	if effort == Full {
		ns = []int{5, 8, 12, 16, 24, 32, 48, 64}
		trials = 20
	}
	exp := "table1-unit-sum"
	if version == core.MAX {
		exp = "table1-unit-max"
	}
	points := make([]runner.Point, len(ns))
	for i, n := range ns {
		points[i] = runner.Point{Exp: exp, Key: fmt.Sprintf("n=%d,trials=%d", n, trials), Seed: seed, Data: n}
	}
	return runner.Job{Exp: exp, Points: points, Eval: func(p runner.Point) (any, error) {
		return evalUnit(version, trials, p)
	}}
}

// evalUnit runs the unit-budget dynamics trials for one n and audits
// every reached equilibrium against Theorems 4.1/4.2.
func evalUnit(version core.Version, trials int, p runner.Point) (any, error) {
	n := p.Data.(int)
	rng := rand.New(rand.NewSource(p.Seed + int64(n)))
	g := core.UniformGame(n, 1, version)
	res := UnitResult{N: n, Trials: trials}
	// One distance-cache pool serves every trial of the cell, here and in
	// the other sweeps. The trials run the same game back to back on a
	// single goroutine, so the warm per-player matrices survive across
	// them — each run invalidates the pool on entry and resyncs entries
	// against its own start profile — instead of being refilled from
	// scratch per trial.
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	for trial := 0; trial < trials; trial++ {
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Responder:   core.ExactResponder(0),
			Cached:      core.ExactDeviatorResponder(0),
			DetectLoops: true,
			MaxRounds:   2000,
			Pool:        pool,
		})
		if err != nil {
			res.AuditFails++
			continue
		}
		if out.Loop {
			res.Loops++
			continue
		}
		if !out.Converged {
			continue
		}
		res.Converged++
		audit := analysis.AuditUnitBudget(out.Final)
		ok := audit.SatisfiesSUM
		if version == core.MAX {
			ok = audit.SatisfiesMAX
		}
		if !ok {
			res.AuditFails++
		}
		if audit.SocialCost > res.MaxDiam {
			res.MaxDiam = audit.SocialCost
		}
		if audit.CycleLen > res.MaxCycle {
			res.MaxCycle = audit.CycleLen
		}
	}
	return res, nil
}

func unitTable(version core.Version, rows []UnitResult) *sweep.Table {
	t := sweep.NewTable(
		fmt.Sprintf("Table 1 [All-Unit, %v]: dynamics equilibria have O(1) diameter", version),
		"n", "trials", "converged", "loops", "max-eq-diam", "max-cycle", "audit-fails")
	for _, r := range rows {
		t.Addf(r.N, r.Trials, r.Converged, r.Loops, r.MaxDiam, r.MaxCycle, r.AuditFails)
	}
	return t
}

// Table1Unit reproduces the All-Unit-Budgets row: best-response dynamics
// on (1,...,1)-BG reach equilibria whose diameter is O(1); every reached
// equilibrium is audited against the structure of Theorems 4.1/4.2.
func Table1Unit(version core.Version, effort Effort, seed int64) (*sweep.Table, []UnitResult, error) {
	rows, err := runRows[UnitResult](unitJob(version, effort, seed))
	if err != nil {
		return nil, nil, err
	}
	return unitTable(version, rows), rows, nil
}

// ---------------------------------------------------------------------
// Table 1 [All-Positive, MAX]

type positiveMAXRow struct {
	T        int     `json:"t"`
	K        int     `json:"k"`
	N        int     `json:"n"`
	Diam     int32   `json:"diam"`
	SqrtLogN float64 `json:"sqrtLogN"`
	Mode     string  `json:"mode"`
	Verified bool    `json:"verified"`
}

func positiveMAXJob(effort Effort) runner.Job {
	type point struct{ t, k int }
	points := []point{{3, 2}, {4, 2}}
	if effort == Full {
		points = []point{{3, 2}, {4, 2}, {5, 2}, {8, 2}, {5, 3}, {6, 3}, {8, 3}, {9, 4}}
	}
	rp := make([]runner.Point, len(points))
	for i, p := range points {
		rp[i] = runner.Point{Exp: "table1-positive-max", Key: fmt.Sprintf("t=%d,k=%d", p.t, p.k), Data: [2]int{p.t, p.k}}
	}
	return runner.Job{Exp: "table1-positive-max", Points: rp, Eval: evalPositiveMAX}
}

// evalPositiveMAX certifies one shift graph (Lemma 5.2) as an
// all-positive MAX equilibrium, exactly below 20 vertices and by the
// lemma's certificate beyond.
func evalPositiveMAX(p runner.Point) (any, error) {
	const exactVertexLimit = 20
	tk := p.Data.([2]int)
	sg, err := construct.NewShiftGraph(tk[0], tk[1], 0)
	if err != nil {
		return nil, err
	}
	cert := sg.CertifyEquilibrium()
	r := positiveMAXRow{T: tk[0], K: tk[1], N: cert.N, Diam: cert.EccMax,
		SqrtLogN: math.Sqrt(math.Log2(float64(cert.N)))}
	if cert.N <= exactVertexLimit {
		r.Mode = "exact"
		g := core.MustGame(sg.Budgets(), core.MAX)
		dev, err := g.VerifyNash(sg.D, 0)
		if err != nil {
			return nil, err
		}
		r.Verified = dev == nil && cert.OK
	} else {
		r.Mode = "certificate"
		r.Verified = cert.OK
	}
	return r, nil
}

func positiveMAXTable(rows []positiveMAXRow) *sweep.Table {
	t := sweep.NewTable("Table 1 [All-Positive, MAX]: shift-graph equilibria, diameter = sqrt(log n)",
		"t", "k", "n", "eq-diameter", "sqrt(log2 n)", "verified", "mode")
	for _, r := range rows {
		t.Addf(r.T, r.K, r.N, r.Diam, r.SqrtLogN, yesNo(r.Verified), r.Mode)
	}
	return t
}

// Table1PositiveMAX reproduces the All-Positive/MAX cell: shift graphs
// (Lemma 5.2) with all-positive budgets whose equilibrium diameter is
// k = sqrt(log n). Small instances are verified exactly; larger ones get
// the Lemma 5.2 certificate (plus swap-stability at Full effort).
func Table1PositiveMAX(effort Effort) (*sweep.Table, error) {
	rows, err := runRows[positiveMAXRow](positiveMAXJob(effort))
	if err != nil {
		return nil, err
	}
	return positiveMAXTable(rows), nil
}

// ---------------------------------------------------------------------
// Table 1 [General, SUM]

type generalSUMRow struct {
	N         int     `json:"n"`
	Trials    int     `json:"trials"`
	Converged int     `json:"converged"`
	MaxDiam   int64   `json:"maxDiam"`
	Bound     float64 `json:"bound"`
}

func generalSUMJob(effort Effort, seed int64) runner.Job {
	ns := []int{8, 12, 16}
	trials := 4
	if effort == Full {
		ns = []int{8, 12, 16, 24, 32, 48, 64, 96}
		trials = 10
	}
	points := make([]runner.Point, len(ns))
	for i, n := range ns {
		points[i] = runner.Point{Exp: "table1-general-sum", Key: fmt.Sprintf("n=%d,trials=%d", n, trials), Seed: seed, Data: n}
	}
	return runner.Job{Exp: "table1-general-sum", Points: points, Eval: func(p runner.Point) (any, error) {
		return evalGeneralSUM(trials, p)
	}}
}

// evalGeneralSUM drives best-response dynamics over random budget
// vectors at one n and records the worst equilibrium diameter against
// the Theorem 6.9 bound.
func evalGeneralSUM(trials int, p runner.Point) (any, error) {
	n := p.Data.(int)
	rng := rand.New(rand.NewSource(p.Seed + int64(7*n)))
	r := generalSUMRow{N: n, Trials: trials, Bound: math.Exp2(math.Sqrt(math.Log2(float64(n))))}
	for trial := 0; trial < trials; trial++ {
		budgets := randomConnectedBudgets(n, rng)
		g := core.MustGame(budgets, core.SUM)
		responder := core.Responder(core.GreedyResponder)
		cached := core.DeviatorResponder(core.GreedyDeviatorResponder)
		if n <= 12 {
			responder = core.ExactResponder(0)
			cached = core.ExactDeviatorResponder(0)
		}
		out, err := dynamics.RunFromRandom(g, rng, dynamics.Options{
			Responder:   responder,
			Cached:      cached,
			DetectLoops: true,
			MaxRounds:   400,
		})
		if err != nil || !out.Converged {
			continue
		}
		r.Converged++
		if sc := g.SocialCost(out.Final); sc > r.MaxDiam {
			r.MaxDiam = sc
		}
	}
	return r, nil
}

// generalSUMTable renders the sweep table alone.
func generalSUMTable(rows []generalSUMRow) *sweep.Table {
	t := sweep.NewTable("Table 1 [General, SUM]: dynamics equilibria vs the 2^O(sqrt(log n)) bound",
		"n", "trials", "converged", "max-eq-diam", "2^sqrt(log2 n)")
	for _, r := range rows {
		t.Addf(r.N, r.Trials, r.Converged, r.MaxDiam, r.Bound)
	}
	return t
}

// generalSUMTables renders the sweep table plus — when at least two
// points converged — the growth-law fit of the equilibrium diameters
// (the CLI's sumupper output).
func generalSUMTables(rows []generalSUMRow) ([]*sweep.Table, error) {
	ns, diams := generalSUMSeries(rows)
	tables := []*sweep.Table{generalSUMTable(rows)}
	if len(ns) >= 2 {
		fits, err := analysis.FitGrowth(ns, diams)
		if err != nil {
			return nil, err
		}
		ft := sweep.NewTable("growth-law fit of SUM equilibrium diameters", "model", "coefficient", "rel-RMSE")
		for _, f := range fits {
			ft.Addf(f.Model, f.Coefficient, f.RelRMSE)
		}
		tables = append(tables, ft)
	}
	return tables, nil
}

// generalSUMSeries extracts the (n, diameter) series of converged points.
func generalSUMSeries(rows []generalSUMRow) (ns, diams []float64) {
	for _, r := range rows {
		if r.Converged > 0 {
			ns = append(ns, float64(r.N))
			diams = append(diams, float64(r.MaxDiam))
		}
	}
	return ns, diams
}

// Table1GeneralSUM reproduces the General/SUM cell: best-response
// dynamics over random budget vectors reach SUM equilibria; their
// diameters stay far below the 2^O(sqrt(log n)) bound of Theorem 6.9 (and
// empirically track O(log n), consistent with the paper's conjecture that
// the strange bound is not tight).
func Table1GeneralSUM(effort Effort, seed int64) (*sweep.Table, []float64, []float64, error) {
	rows, err := runRows[generalSUMRow](generalSUMJob(effort, seed))
	if err != nil {
		return nil, nil, nil, err
	}
	ns, diams := generalSUMSeries(rows)
	return generalSUMTable(rows), ns, diams, nil
}

// randomConnectedBudgets draws a positive-total budget vector with
// sum >= n-1 (so equilibria are connected, Lemma 3.1): a random spanning
// allocation plus random extras, each budget < n.
func randomConnectedBudgets(n int, rng *rand.Rand) []int {
	budgets := make([]int, n)
	// Give out n-1 units round-robin from a random start, then sprinkle.
	start := rng.Intn(n)
	for i := 0; i < n-1; i++ {
		budgets[(start+i)%n]++
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		v := rng.Intn(n)
		if budgets[v] < n-1 {
			budgets[v]++
		}
	}
	return budgets
}
