package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/sweep"
	"repro/pkg/bbncg"
)

// family is one converge instance shape.
type family struct {
	name    string
	n       int
	version core.Version
	maxW    int32 // arc weights in [1, maxW]; 0 for an unweighted game
}

// convergeFamilies are the instances of one converge pass, in run order.
var convergeFamilies = []family{
	{"sum", 512, core.SUM, 0},
	{"max", 512, core.MAX, 0},
	{"weighted", 128, core.SUM, 8},
}

// convergeBudget is every player's budget.
const convergeBudget = 2

// instance is one generated converge input.
type instance struct {
	fam   family
	game  *core.Game
	start *graph.Digraph
	wts   *graph.Weights
}

func newInstance(fam family, seed int64) instance {
	g := core.UniformGame(fam.n, convergeBudget, fam.version)
	in := instance{fam: fam, game: g, start: dynamics.RandomProfile(g, rand.New(rand.NewSource(seed)))}
	if fam.maxW > 0 {
		in.wts = graph.NewWeights(fam.n, seed, fam.maxW)
	}
	return in
}

// buildPass generates the inputs of converge pass p.
func buildPass(fams []family, seed int64, p int) []instance {
	ins := make([]instance, len(fams))
	for i, f := range fams {
		ins[i] = newInstance(f, derive(seed, int64(p), int64(i)))
	}
	return ins
}

// options are the production options pkg/bbncg.RunDynamics builds for
// the greedy responder: Responder plus Cached, a run-owned pool, and
// Parallel unset.
func (in instance) options() dynamics.Options {
	rc, err := bbncg.ResponderByName("greedy", 0)
	if err != nil {
		panic(err) // "greedy" is a built-in name
	}
	opts := dynamics.Options{Responder: rc.Plain, Cached: rc.Cached, Weights: in.wts}
	if in.wts != nil {
		opts.Responder = core.WeightedGreedyResponder(in.wts)
	}
	return opts
}

// instanceRun is one instance brought to equilibrium.
type instanceRun struct {
	res   dynamics.Result
	err   error
	wall  float64   // seconds
	cpu   float64   // process CPU seconds
	scans []float64 // wall ms of each best-response scan
}

// runInstance runs in untraced, timing each Options.Cached call.
func runInstance(in instance) instanceRun {
	opts := in.options()
	out := instanceRun{scans: make([]float64, 0, 4*in.fam.n)}
	cached := opts.Cached
	opts.Cached = func(g *core.Game, d *graph.Digraph, dv *core.Deviator) core.BestResponse {
		t := time.Now()
		br := cached(g, d, dv)
		out.scans = append(out.scans, ms(time.Since(t).Seconds()))
		return br
	}
	w := startWatch()
	out.res, out.err = dynamics.Run(in.game, in.start, opts)
	out.wall, out.cpu = w.elapsed()
	return out
}

// instanceTrace is one traced instance run.
type instanceTrace struct {
	res    dynamics.Result
	err    error
	stats  core.PoolStats
	run    int   // dynamics.Run span
	rounds []int // round spans, in order
}

// roundScheduler wraps RoundRobin to open one span per round: a round
// runs from its Order call to the next one, or to the end of the run.
type roundScheduler struct {
	tr     *tracer
	req    string
	parent int
	cur    int
	rounds []int
}

func (s *roundScheduler) Order(dst []int, round int) {
	s.finish()
	s.cur = s.tr.begin("dynamics.round", s.req, s.parent)
	s.rounds = append(s.rounds, s.cur)
	dynamics.RoundRobin{}.Order(dst, round)
}

func (s *roundScheduler) Name() string { return dynamics.RoundRobin{}.Name() }

func (s *roundScheduler) finish() {
	if s.cur != 0 {
		s.tr.end(s.cur)
		s.cur = 0
	}
}

// traceInstance runs in with spans around dynamics.Run, each round and
// each scan, on a fresh external pool whose Stats give the ladder
// counts (a run-owned pool is closed before its counts can be read).
func traceInstance(tr *tracer, in instance, req string) instanceTrace {
	opts := in.options()
	pool := core.NewWeightedCachePool(in.game, opts.PoolBudget, in.wts)
	defer pool.Close()
	opts.Pool = pool
	run := tr.begin("dynamics.run", req, 0)
	sched := &roundScheduler{tr: tr, req: req, parent: run}
	opts.Scheduler = sched
	cached := opts.Cached
	opts.Cached = func(g *core.Game, d *graph.Digraph, dv *core.Deviator) core.BestResponse {
		id := tr.begin("core.scan", req, sched.cur)
		br := cached(g, d, dv)
		tr.end(id)
		return br
	}
	res, err := dynamics.Run(in.game, in.start, opts)
	sched.finish()
	tr.end(run)
	return instanceTrace{res: res, err: err, stats: pool.Stats(), run: run, rounds: sched.rounds}
}

// equilibriumViolations counts players for whom the unpooled greedy
// responder finds an improving move on final.
func equilibriumViolations(in instance, final *graph.Digraph) int {
	respond := core.GreedyResponder
	if in.wts != nil {
		respond = core.WeightedGreedyResponder(in.wts)
	}
	players := make([]int, in.fam.n)
	for i := range players {
		players[i] = i
	}
	improves := sweep.ParallelN(players, runtime.GOMAXPROCS(0), func(u int) bool {
		return respond(in.game, final, u).Improves()
	})
	bad := 0
	for _, b := range improves {
		if b {
			bad++
		}
	}
	return bad
}

// arcsDigest is a short hash of a profile's arc list.
func arcsDigest(d *graph.Digraph) string {
	raw, err := json.Marshal(bbncg.Arcs(d))
	if err != nil {
		panic(err) // [][2]int always marshals
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// checkInstance checks one finished instance and reports whether it
// failed (error or no convergence).
func checkInstance(rep *report, label string, in instance, res dynamics.Result, err error) bool {
	if err != nil {
		rep.check(label+".run", false, "%v", err)
		return true
	}
	rep.check(label+".converged", res.Converged, "rounds=%d moves=%d", res.Rounds, res.Moves)
	if !res.Converged {
		return true
	}
	bad := equilibriumViolations(in, res.Final)
	rep.check(label+".equilibrium", bad == 0, "%d players have an improving move", bad)
	return false
}

// familyTrace accumulates one family's traced per-layer numbers.
type familyTrace struct {
	untraced                 []float64
	run, cold, conv, settled []float64
	rounds, moves            []float64
	scan, scans, ladder      []float64
	stats                    []core.PoolStats
	sumCheckFailed           bool
}

// runConverge is the converge workload: each pass brings one instance
// of every family from a seeded random profile to equilibrium.
func runConverge(cfg config, fams []family, rep *report) error {
	var ps passStats
	build := func(p int) []instance {
		releaseMemory()
		w := startWatch()
		ins := buildPass(fams, cfg.seed, p)
		_, cpu := w.elapsed()
		ps.setups = append(ps.setups, cpu)
		return ins
	}
	for i := 0; i < setupRepeats; i++ {
		build(0)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var traced []float64
	perFam := make([]familyTrace, len(fams))
	measured := 0.0
	for p := 0; p == 0 || measured < cfg.seconds; p++ {
		ins := build(p)
		runs := make([]instanceRun, len(ins))
		wall, cpu := 0.0, 0.0
		for i, in := range ins {
			releaseMemory()
			runs[i] = runInstance(in)
			wall += runs[i].wall
			cpu += runs[i].cpu
		}
		measured += wall
		ps.walls = append(ps.walls, wall)
		ps.cpus = append(ps.cpus, cpu)
		for i, in := range ins {
			r := runs[i]
			label := fmt.Sprintf("converge.pass%d.%s", p, in.fam.name)
			rep.attempted++
			if checkInstance(rep, label, in, r.res, r.err) {
				rep.failed++
				continue
			}
			ps.lat = append(ps.lat, r.scans...)
			ps.ops += r.res.Rounds * in.fam.n
			perFam[i].untraced = append(perFam[i].untraced, r.wall)
			if p == 0 {
				rep.digestf("converge %s n=%d rounds=%d moves=%d arcs=%s", in.fam.name, in.fam.n, r.res.Rounds, r.res.Moves, arcsDigest(r.res.Final))
			}
		}
		if tr == nil {
			continue
		}
		twall := 0.0
		for i, in := range ins {
			label := fmt.Sprintf("converge.pass%d.%s.traced", p, in.fam.name)
			releaseMemory()
			t := traceInstance(tr, in, fmt.Sprintf("pass%d.%s", p, in.fam.name))
			twall += tr.get(t.run).dur().Seconds()
			rep.attempted++
			if t.err != nil {
				rep.failed++
				rep.check(label+".run", false, "%v", t.err)
				continue
			}
			same := t.res.Rounds == runs[i].res.Rounds && t.res.Moves == runs[i].res.Moves &&
				runs[i].res.Final != nil && arcsDigest(t.res.Final) == arcsDigest(runs[i].res.Final)
			rep.check(label+".matches_untraced", same, "rounds=%d moves=%d", t.res.Rounds, t.res.Moves)
			perFam[i].add(tr, t)
		}
		measured += twall
		traced = append(traced, twall)
	}
	ps.report(rep, "converge", "scan")
	for i, f := range fams {
		rep.notef("converge %s_s per pass: %v", f.name, roundAll(perFam[i].untraced))
	}
	if tr == nil {
		return nil
	}
	rep.set("trace_overhead", "ratio", median(traced)/median(ps.walls)-1)
	for i, f := range fams {
		perFam[i].report(rep, f)
	}
	return tr.write(spanFile(cfg.workdir, "converge"))
}

// add folds one traced instance into the family's numbers.
func (ft *familyTrace) add(tr *tracer, t instanceTrace) {
	run := tr.get(t.run)
	var spans []span
	for _, s := range tr.snapshot() {
		if s.Req == run.Req {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	var cold, conv, settled time.Duration
	ladder := self[run.ID]
	for k, id := range t.rounds {
		d := tr.get(id).dur()
		ladder += self[id]
		switch {
		case k == 0:
			cold += d
		case k == len(t.rounds)-1 && t.res.Converged:
			settled += d
		default:
			conv += d
		}
	}
	var scan time.Duration
	scans := 0
	for _, s := range spans {
		if s.Name == "core.scan" {
			scan += s.dur()
			scans++
		}
	}
	if scan+ladder != run.dur() {
		ft.sumCheckFailed = true
	}
	ft.run = append(ft.run, run.dur().Seconds())
	ft.cold = append(ft.cold, cold.Seconds())
	ft.conv = append(ft.conv, conv.Seconds())
	ft.settled = append(ft.settled, settled.Seconds())
	ft.rounds = append(ft.rounds, float64(t.res.Rounds))
	ft.moves = append(ft.moves, float64(t.res.Moves))
	ft.scan = append(ft.scan, scan.Seconds())
	ft.scans = append(ft.scans, float64(scans))
	ft.ladder = append(ft.ladder, ladder.Seconds())
	ft.stats = append(ft.stats, t.stats)
}

// report sets the family's per-layer metrics: means over traced passes.
func (ft *familyTrace) report(rep *report, f family) {
	pre := f.name + "."
	rep.check("converge."+f.name+".scan_plus_ladder_is_run", !ft.sumCheckFailed && len(ft.run) > 0,
		"core.scan_s + core.ladder_s must equal dynamics.run_s on every traced instance")
	rep.set(f.name+"_s", "s", mean(ft.untraced))
	rep.set(pre+"dynamics.run_s", "s", mean(ft.run))
	rep.set(pre+"dynamics.round_cold_s", "s", mean(ft.cold))
	rep.set(pre+"dynamics.round_converging_s", "s", mean(ft.conv))
	rep.set(pre+"dynamics.round_settled_s", "s", mean(ft.settled))
	rep.set(pre+"dynamics.rounds", "count", mean(ft.rounds))
	rep.set(pre+"dynamics.moves", "count", mean(ft.moves))
	rep.set(pre+"core.scan_s", "s", mean(ft.scan))
	rep.set(pre+"core.scans", "count", mean(ft.scans))
	rep.set(pre+"core.ladder_s", "s", mean(ft.ladder))
	var fills, delta, resyncs, skips, memo, refills, repairs, patched, refilled []float64
	for _, st := range ft.stats {
		fills = append(fills, float64(st.Fills))
		delta = append(delta, float64(st.DeltaRepairs))
		resyncs = append(resyncs, float64(st.Resyncs))
		skips = append(skips, float64(st.StampSkips))
		memo = append(memo, float64(st.MemoHits))
		refills = append(refills, float64(st.FullRefills))
		repairs = append(repairs, float64(st.Repairs))
		patched = append(patched, float64(st.RowsPatched))
		refilled = append(refilled, float64(st.RowsRefilled))
	}
	rep.set(pre+"core.pool.fills", "count", mean(fills))
	rep.set(pre+"core.pool.delta_repairs", "count", mean(delta))
	rep.set(pre+"core.pool.resyncs", "count", mean(resyncs))
	rep.set(pre+"core.pool.stamp_skips", "count", mean(skips))
	rep.set(pre+"core.pool.memo_hits", "count", mean(memo))
	rep.set(pre+"core.pool.full_refills", "count", mean(refills))
	rep.set(pre+"core.pool.full_refill_ratio", "ratio", ratio(sumOf(refills), sumOf(repairs)))
	rep.set(pre+"graph.rows_patched", "count", mean(patched))
	rep.set(pre+"graph.rows_refilled", "count", mean(refilled))
	// Computed, not measured: every fill and full refill writes a whole
	// 4n(n+1)-byte matrix, every refilled row 4(n+1) bytes.
	n := float64(f.n)
	rep.set(pre+"graph.refill_bytes", "bytes", (mean(fills)+mean(refills))*4*n*(n+1)+mean(refilled)*4*(n+1))
}

// roundAll rounds xs to milliseconds for report lines.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e3+0.5)) / 1e3
	}
	return out
}

// releaseMemory collects the previous instance's cache pool, recycled
// matrices included, and returns the memory to the OS, so every
// instance starts from the heap a fresh process would have and the peak
// RSS is one instance's footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
