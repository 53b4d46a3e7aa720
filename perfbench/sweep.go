package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/store"
)

// sweepSpecs is the `bbncg all` bundle this benchmark was defined over,
// in run order; each names a per-layer metric. The workload refuses to
// run if the registry's bundle differs.
var sweepSpecs = []string{
	"fig1", "fig2", "fig3",
	"table1-trees-max", "table1-trees-sum", "table1-unit-sum", "table1-unit-max",
	"table1-positive-max", "table1-general-sum",
	"existence", "reduction", "connectivity", "dynamics-stats", "exact-poa",
	"uniform-budget", "baseline", "weak-machinery", "simultaneous", "fip", "directed",
	"robustness", "treedyn", "weighted-dyn",
}

// allSpecs resolves the `bbncg all` bundle from the registry.
func allSpecs() ([]experiments.Spec, error) {
	cmd, ok := experiments.CommandByName("all")
	if !ok {
		return nil, fmt.Errorf("no `all` command in the experiments registry")
	}
	if !slices.Equal(cmd.Specs, sweepSpecs) {
		return nil, fmt.Errorf("`bbncg all` now runs %v; the benchmark is defined over %v", cmd.Specs, sweepSpecs)
	}
	specs := make([]experiments.Spec, len(cmd.Specs))
	for i, name := range cmd.Specs {
		s, ok := experiments.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("spec %q of `all` is not registered", name)
		}
		specs[i] = s
	}
	return specs, nil
}

// sweepSetup is one pass's set-up: a fresh store and every spec's job.
type sweepSetup struct {
	dir  string
	st   *store.Store
	jobs []runner.Job
}

func newSweepSetup(workdir string, specs []experiments.Spec, effort experiments.Effort, seed int64) (*sweepSetup, error) {
	dir, err := os.MkdirTemp(workdir, "sweep-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &sweepSetup{dir: dir, st: st, jobs: make([]runner.Job, len(specs))}
	for i, spec := range specs {
		s.jobs[i] = spec.Job(effort, seed)
	}
	return s, nil
}

func (s *sweepSetup) remove() {
	s.st.Close()
	os.RemoveAll(s.dir)
}

// sweepPass is one `bbncg all` pass.
type sweepPass struct {
	wall      float64
	cpu       float64   // process CPU seconds
	points    []float64 // per-point Eval latency, ms
	rendered  []byte
	attempted int
	failed    int
	errs      []string
	spec      []float64 // traced: per-spec seconds
	evalBusy  float64   // traced: summed Eval seconds
	runSelf   float64   // traced: runner.Run self time
	render    float64   // traced: render seconds
	records   int
	bytes     int64
}

// runSweepPass runs every spec the CLI's way — Spec.Job, runner.Run into
// the store, Spec.Render, Table.Render — timing each point's Eval. With
// a tracer it also records spec, runner, eval and render spans.
func runSweepPass(specs []experiments.Spec, s *sweepSetup, tr *tracer) sweepPass {
	var out sweepPass
	var mu sync.Mutex
	var buf bytes.Buffer
	var specSpans, runSpans, renderSpans []int
	w := startWatch()
	for i, spec := range specs {
		job := s.jobs[i]
		var specSpan, runSpan int
		if tr != nil {
			specSpan = tr.begin("experiments.spec", spec.Name, 0)
			runSpan = tr.begin("runner.run", spec.Name, specSpan)
			specSpans = append(specSpans, specSpan)
			runSpans = append(runSpans, runSpan)
		}
		eval := job.Eval
		job.Eval = func(p runner.Point) (any, error) {
			var id int
			if tr != nil {
				id = tr.begin("experiments.eval", spec.Name, runSpan)
			}
			t := time.Now()
			v, err := eval(p)
			d := time.Since(t)
			if tr != nil {
				tr.end(id)
			}
			mu.Lock()
			out.points = append(out.points, ms(d.Seconds()))
			mu.Unlock()
			return v, err
		}
		out.attempted += len(job.Points)
		rep, err := runner.Run(job, s.st, runner.Options{})
		if tr != nil {
			tr.end(runSpan)
		}
		if err != nil {
			out.failed += len(job.Points)
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", spec.Name, err))
			if tr != nil {
				tr.end(specSpan)
			}
			continue
		}
		out.failed += rep.Failed + rep.Interrupted
		var renderSpan int
		if tr != nil {
			renderSpan = tr.begin("experiments.render", spec.Name, specSpan)
			renderSpans = append(renderSpans, renderSpan)
		}
		if err := renderSpec(&buf, spec, rep); err != nil {
			out.failed += len(job.Points)
			out.errs = append(out.errs, fmt.Sprintf("%s: render: %v", spec.Name, err))
		}
		if tr != nil {
			tr.end(renderSpan)
			tr.end(specSpan)
		}
	}
	out.wall, out.cpu = w.elapsed()
	out.rendered = buf.Bytes()
	if tr != nil {
		out.records = s.st.Len()
		if n, err := dirBytes(s.dir); err == nil {
			out.bytes = n
		} else {
			out.errs = append(out.errs, fmt.Sprintf("store size: %v", err))
		}
		spans := tr.snapshot()
		self := selfTimes(spans)
		for _, id := range specSpans {
			out.spec = append(out.spec, spans[id-1].dur().Seconds())
		}
		for _, id := range runSpans {
			out.runSelf += self[id].Seconds()
		}
		for _, id := range renderSpans {
			out.render += spans[id-1].dur().Seconds()
		}
		runSet := make(map[int]bool, len(runSpans))
		for _, id := range runSpans {
			runSet[id] = true
		}
		for _, sp := range spans {
			if sp.Name == "experiments.eval" && runSet[sp.Parent] {
				out.evalBusy += sp.dur().Seconds()
			}
		}
	}
	return out
}

// renderSpec renders a spec's tables as `bbncg` prints them.
func renderSpec(buf *bytes.Buffer, spec experiments.Spec, rep *runner.Report) error {
	if rep.Failed > 0 || rep.Interrupted > 0 {
		return fmt.Errorf("%d failed and %d interrupted points", rep.Failed, rep.Interrupted)
	}
	tables, err := spec.Render(rep.Values)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(buf); err != nil {
			return err
		}
		buf.WriteString("\n")
	}
	return nil
}

// mergeRender renders every spec from the store at dir without
// evaluating anything, the way `bbncg merge all` does.
func mergeRender(dir string, specs []experiments.Spec, effort experiments.Effort, seed int64) ([]byte, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var buf bytes.Buffer
	for _, spec := range specs {
		rep, err := runner.Merge(spec.Job(effort, seed), st)
		if err != nil {
			return nil, err
		}
		if err := renderSpec(&buf, spec, rep); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// sweepTrace accumulates the traced passes' per-layer numbers.
type sweepTrace struct {
	spec                      [][]float64
	evalBusy, runSelf, render []float64
	points, records, bytes    []float64
}

// runSweep is the sweep workload: `bbncg all` at the given effort, one
// fresh store per pass, each pass at its own derived seed.
func runSweep(cfg config, effort experiments.Effort, rep *report) error {
	specs, err := allSpecs()
	if err != nil {
		return err
	}
	var ps passStats
	setup := func(seed int64) (*sweepSetup, error) {
		w := startWatch()
		s, err := newSweepSetup(cfg.workdir, specs, effort, seed)
		if err == nil {
			_, cpu := w.elapsed()
			ps.setups = append(ps.setups, cpu)
		}
		return s, err
	}
	for i := 0; i < setupRepeats; i++ {
		s, err := setup(derive(cfg.seed, 0))
		if err != nil {
			return err
		}
		s.remove()
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var traced []float64
	var st sweepTrace
	st.spec = make([][]float64, len(specs))
	measured := 0.0
	for p := 0; p == 0 || measured < cfg.seconds; p++ {
		seed := derive(cfg.seed, int64(p))
		s, err := setup(seed)
		if err != nil {
			return err
		}
		out := runSweepPass(specs, s, nil)
		measured += out.wall
		ps.walls = append(ps.walls, out.wall)
		ps.cpus = append(ps.cpus, out.cpu)
		ps.lat = append(ps.lat, out.points...)
		ps.ops += len(out.points)
		checkSweepPass(rep, fmt.Sprintf("sweep.pass%d", p), s, out, specs, effort, seed)
		if p == 0 {
			rep.digestf("sweep tables=%s bytes=%d", shortHash(out.rendered), len(out.rendered))
		}
		s.remove()
		if tr == nil {
			continue
		}
		s, err = setup(seed)
		if err != nil {
			return err
		}
		tout := runSweepPass(specs, s, tr)
		measured += tout.wall
		traced = append(traced, tout.wall)
		checkSweepPass(rep, fmt.Sprintf("sweep.pass%d.traced", p), s, tout, specs, effort, seed)
		rep.check(fmt.Sprintf("sweep.pass%d.traced.matches_untraced", p), bytes.Equal(tout.rendered, out.rendered),
			"traced and untraced passes must render the same tables")
		for i, x := range tout.spec {
			st.spec[i] = append(st.spec[i], x)
		}
		st.evalBusy = append(st.evalBusy, tout.evalBusy)
		st.runSelf = append(st.runSelf, tout.runSelf)
		st.render = append(st.render, tout.render)
		st.points = append(st.points, float64(tout.attempted))
		st.records = append(st.records, float64(tout.records))
		st.bytes = append(st.bytes, float64(tout.bytes))
		s.remove()
	}
	ps.report(rep, "sweep", "point")
	if tr == nil {
		return nil
	}
	rep.set("trace_overhead", "ratio", median(traced)/median(ps.walls)-1)
	for i, spec := range specs {
		rep.set("experiments."+spec.Name+"_s", "s", mean(st.spec[i]))
	}
	rep.set("experiments.eval_busy_s", "s", mean(st.evalBusy))
	rep.set("runner.self_s", "s", mean(st.runSelf))
	rep.set("experiments.render_s", "s", mean(st.render))
	rep.set("runner.points", "count", mean(st.points))
	rep.set("store.records", "count", mean(st.records))
	rep.set("store.bytes", "bytes", mean(st.bytes))
	return tr.write(spanFile(cfg.workdir, "sweep"))
}

// checkSweepPass counts the pass's points and failures and checks the
// live render against a merge render of the same store.
func checkSweepPass(rep *report, label string, s *sweepSetup, out sweepPass, specs []experiments.Spec, effort experiments.Effort, seed int64) {
	rep.attempted += out.attempted
	rep.failed += out.failed
	rep.check(label+".no_failed_points", out.failed == 0 && len(out.errs) == 0, "%d of %d points failed %s", out.failed, out.attempted, strings.Join(out.errs, "; "))
	if err := s.st.Close(); err != nil {
		rep.check(label+".store_close", false, "%v", err)
		return
	}
	merged, err := mergeRender(s.dir, specs, effort, seed)
	if err != nil {
		rep.check(label+".merge", false, "%v", err)
		return
	}
	rep.check(label+".merge_equals_live", bytes.Equal(merged, out.rendered), "live %d bytes, merged %d bytes", len(out.rendered), len(merged))
}
