package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports from an untraced run.
// Each workload maps them onto its own unit of work (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_s", "s"},
}

// wallLayer are the wall-clock numbers of the untraced passes, reported
// by the traced run of every workload. They carry no bound: on a shared
// VM they follow CPU steal.
var wallLayer = []metricDef{
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// convergeFamilyLayer are the converge per-layer metrics, reported once
// per family under a "<family>." prefix.
var convergeFamilyLayer = []metricDef{
	{"dynamics.run_s", "s"},
	{"dynamics.round_cold_s", "s"},
	{"dynamics.round_converging_s", "s"},
	{"dynamics.round_settled_s", "s"},
	{"dynamics.rounds", "count"},
	{"dynamics.moves", "count"},
	{"core.scan_s", "s"},
	{"core.scans", "count"},
	{"core.ladder_s", "s"},
	{"core.pool.fills", "count"},
	{"core.pool.delta_repairs", "count"},
	{"core.pool.resyncs", "count"},
	{"core.pool.stamp_skips", "count"},
	{"core.pool.memo_hits", "count"},
	{"core.pool.full_refills", "count"},
	{"core.pool.full_refill_ratio", "ratio"},
	{"graph.rows_patched", "count"},
	{"graph.rows_refilled", "count"},
	{"graph.refill_bytes", "bytes"},
}

// serveClassLayer are the serve per-layer metrics of one request class;
// "%s" is the class.
var serveClassLayer = []metricDef{
	{"serve.%s_p50_ms", "ms"},
	{"serve.%s_p90_ms", "ms"},
	{"serve.%s_tail_ms", "ms"},
	{"serve.%s_tail_pct", "percentile"},
	{"serve.%s_samples", "count"},
	{"serve.client_ms.%s", "ms"},
	{"serve.handler_ms.%s", "ms"},
	{"serve.transport_ms.%s", "ms"},
}

// serveLayer are the serve per-layer metrics that are not per class.
var serveLayer = []metricDef{
	{"serve.events", "count"},
	{"store.bytes", "bytes"},
	{"core.pool.fills", "count"},
	{"core.pool.delta_repairs", "count"},
	{"core.pool.resyncs", "count"},
	{"core.pool.stamp_skips", "count"},
	{"core.pool.memo_hits", "count"},
	{"core.pool.full_refills", "count"},
	{"core.pool.memo_hit_ratio", "ratio"},
}

// sweepLayer are the sweep per-layer metrics besides the per-spec times.
var sweepLayer = []metricDef{
	{"experiments.eval_busy_s", "s"},
	{"runner.self_s", "s"},
	{"experiments.render_s", "s"},
	{"runner.points", "count"},
	{"store.records", "count"},
	{"store.bytes", "bytes"},
}

// perLayer lists every per-layer metric, in report order. A traced run
// of any workload reports all of them; a layer the workload does not
// exercise reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	seen := make(map[string]bool)
	add := func(d metricDef) {
		if !seen[d.name] {
			seen[d.name] = true
			defs = append(defs, d)
		}
	}
	add(metricDef{"trace_overhead", "ratio"})
	for _, d := range wallLayer {
		add(d)
	}
	for _, f := range convergeFamilies {
		add(metricDef{f.name + "_s", "s"})
		for _, d := range convergeFamilyLayer {
			add(metricDef{f.name + "." + d.name, d.unit})
		}
	}
	for _, c := range serveClasses {
		for _, d := range serveClassLayer {
			add(metricDef{fmt.Sprintf(d.name, c), d.unit})
		}
	}
	for _, d := range serveLayer {
		add(d)
	}
	for _, s := range sweepSpecs {
		add(metricDef{"experiments." + s + "_s", "s"})
	}
	for _, d := range sweepLayer {
		add(d)
	}
	return defs
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check.
type check struct {
	name   string
	ok     bool
	detail string
}

// report collects what a workload run measured and checked.
type report struct {
	metrics   map[string]metric
	checks    []check
	digest    []string
	notes     []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) digestf(format string, args ...any) {
	r.digest = append(r.digest, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and nothing failed.
func (r *report) correct() bool {
	if r.failed != 0 || r.attempted == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// result restricts the collected metrics to defs, in the result line's
// shape. A metric of defs the workload did not set reads 0 when
// zeroMissing, and is an error otherwise.
func (r *report) result(defs []metricDef, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		case ok:
			out[d.name] = m
		case zeroMissing:
			out[d.name] = metric{Value: 0, Unit: d.unit}
		default:
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload did not report %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// Percentiles are taken by nearest rank over the sorted samples. They
// are given in per-mille so that 99.9 stays exact.
const (
	p50  = 500
	p90  = 900
	p99  = 990
	p999 = 999
)

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []int{p50, p90, p99, p999}

// rank returns the 1-based nearest rank of per-mille percentile pm in n
// samples.
func rank(n, pm int) int {
	r := (n*pm + 999) / 1000
	return max(r, 1)
}

// percentile returns the per-mille percentile pm of xs (nearest rank);
// xs need not be sorted. It returns 0 for no samples.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pm)-1]
}

// tailPercentile returns the highest percentile of tailLadder with at
// least ten samples beyond it, and false when even the median has
// fewer.
func tailPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, pm := range tailLadder {
		if n-rank(n, pm) >= 10 {
			best, ok = pm, true
		}
	}
	return best, ok
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctLabel renders a per-mille percentile as "p99.9" or "p90".
func pctLabel(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%.1f", float64(pm)/10)
}

// latencySummary renders the median and the supported tail of samples,
// with the sample count, for the report lines.
func latencySummary(xs []float64) string {
	pm, ok := tailPercentile(len(xs))
	if !ok || pm == p50 {
		return fmt.Sprintf("p50=%.3fms n=%d (no tail: too few samples)", percentile(xs, p50), len(xs))
	}
	return fmt.Sprintf("p50=%.3fms %s=%.3fms n=%d", percentile(xs, p50), pctLabel(pm), percentile(xs, pm), len(xs))
}

// passStats is what every workload measures over its untraced passes.
type passStats struct {
	setups []float64 // CPU seconds of each set-up
	walls  []float64 // wall seconds of each pass
	cpus   []float64 // process CPU seconds of each pass
	ops    int       // unit operations completed
	lat    []float64 // wall-clock latency of each unit operation, ms
}

// report sets the end-to-end metrics and the wall-clock layer metrics.
// op names the unit operation in the report lines.
func (ps *passStats) report(rep *report, workload, op string) {
	rep.set("setup_s", "s", median(ps.setups))
	rep.set("cpu_s", "s", median(ps.cpus))
	rep.set("p50_ms", "ms", percentile(ps.lat, p50))
	rep.set("p90_ms", "ms", percentile(ps.lat, p90))
	rep.set("wall_s", "s", median(ps.walls))
	rep.set("ops_per_s", "1/s", ratio(float64(ps.ops), sumOf(ps.walls)))
	rep.notef("%s passes=%d wall_s=%.4f cpu_s=%.4f ops_per_s=%.2f", workload, len(ps.walls), median(ps.walls), median(ps.cpus), ratio(float64(ps.ops), sumOf(ps.walls)))
	rep.notef("%s %s latency %s", workload, op, latencySummary(ps.lat))
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

// elapsed returns the wall and process CPU seconds since the start.
func (w stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), (processCPU() - w.cpu).Seconds()
}

// sumOf returns the sum of xs.
func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts seconds to milliseconds.
func ms(secs float64) float64 { return secs * 1e3 }
