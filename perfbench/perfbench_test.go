package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int // per-mille; 0 for no tail
	}{
		{0, 0}, {19, 0}, {20, p50}, {99, p50}, {100, p90}, {999, p90},
		{1000, p99}, {9999, p99}, {10000, p999},
	} {
		got, ok := tailPercentile(tc.n)
		if !ok {
			got = 0
		}
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if ok && tc.n-rank(tc.n, got) < 10 {
			t.Errorf("n=%d: %s has only %d samples beyond it", tc.n, pctLabel(got), tc.n-rank(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for pm, want := range map[int]float64{p50: 50, p90: 90, p99: 99, p999: 100} {
		if got := percentile(xs, pm); got != want {
			t.Errorf("%s = %v, want %v", pctLabel(pm), got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "spec", Start: ms(0), End: ms(100)},
		// Two workers overlap in [30,50]; the last child runs past the
		// parent's end and is clipped to it.
		{ID: 2, Parent: 1, Name: "eval", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Name: "eval", Start: ms(30), End: ms(70)},
		{ID: 4, Parent: 1, Name: "eval", Start: ms(80), End: ms(90)},
		{ID: 5, Parent: 1, Name: "eval", Start: ms(95), End: ms(120)},
		// A grandchild counts against its own parent only.
		{ID: 6, Parent: 3, Name: "scan", Start: ms(40), End: ms(60)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(25), 2: ms(40), 3: ms(20), 6: ms(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestServeOpMixClassSplit(t *testing.T) {
	total := 0
	for _, m := range opMix {
		total += m.share
	}
	if total != 100 {
		t.Fatalf("op mix shares sum to %d, want 100", total)
	}
	const draws = 200_000
	rng := rand.New(rand.NewSource(1))
	kinds := make(map[opKind]int)
	classes := make(map[string]int)
	for i := 0; i < draws; i++ {
		k, c := drawOp(rng)
		kinds[k]++
		classes[c]++
	}
	near := func(got int, wantPct float64) bool {
		return math.Abs(float64(got)/draws*100-wantPct) < 0.5
	}
	for _, m := range opMix {
		if !near(kinds[m.kind], float64(m.share)) {
			t.Errorf("op kind %d drawn %.2f%% of the time, want %d%%", m.kind, float64(kinds[m.kind])/draws*100, m.share)
		}
	}
	for class, want := range map[string]float64{classQuery: 70, classRewire: 25, classStep: 5} {
		if !near(classes[class], want) {
			t.Errorf("class %s drawn %.2f%% of the time, want %v%%", class, float64(classes[class])/draws*100, want)
		}
	}
}

func TestRandomStrategyIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		u := rng.Intn(5)
		s := randomStrategy(rng, 5, u, 2)
		if len(s) != 2 || s[0] == s[1] || s[0] == u || s[1] == u {
			t.Fatalf("randomStrategy(n=5, u=%d) = %v", u, s)
		}
	}
}

func TestCheckEnvRefusesKnobs(t *testing.T) {
	if err := checkEnv([]string{"HOME=/x", "GOFLAGS="}); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	for _, kv := range []string{"BBNCG_INCREMENTAL=0", "BBNCG_STAMPS=0", "BBNCG_SUMKERNEL=0", "BBNCG_WSTEP=0", "BBNCG_FAULTS=x"} {
		if err := checkEnv([]string{"HOME=/x", kv}); err == nil {
			t.Errorf("%s accepted", kv)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics and
// workloads this command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, command reports %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], command reports %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}

// smoke runs one tiny workload untraced and traced and checks that every
// output check passed, every end-to-end metric was reported, and the
// traced run reported the workload's own layer metrics (layers).
func smoke(t *testing.T, layers []string, run func(config, *report) error) {
	for _, traced := range []bool{false, true} {
		rep := newReport()
		cfg := config{seed: 3, seconds: 0.01, trace: traced, workdir: t.TempDir()}
		if err := run(cfg, rep); err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		for _, c := range rep.checks {
			if !c.ok {
				t.Errorf("trace=%v: check %s failed: %s", traced, c.name, c.detail)
			}
		}
		if !rep.correct() {
			t.Errorf("trace=%v: run not correct: %d of %d failed", traced, rep.failed, rep.attempted)
		}
		if len(rep.digest) == 0 {
			t.Errorf("trace=%v: no behaviour digest", traced)
		}
		if !traced {
			if err := setPeakRSS(rep); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.result(endToEnd, false); err != nil {
				t.Error(err)
			}
			continue
		}
		if _, err := rep.result(perLayer(), true); err != nil {
			t.Error(err)
		}
		for _, name := range append([]string{"trace_overhead"}, layers...) {
			if _, ok := rep.metrics[name]; !ok {
				t.Errorf("traced run did not report %s", name)
			}
		}
	}
}

var tinyFamilies = []family{
	{"sum", 24, core.SUM, 0},
	{"max", 24, core.MAX, 0},
	{"weighted", 16, core.SUM, 8},
}

func TestSmokeConverge(t *testing.T) {
	layers := []string{"sum_s", "sum.core.scan_s", "sum.core.ladder_s", "max.dynamics.round_cold_s", "weighted.core.pool.full_refill_ratio"}
	smoke(t, layers, func(cfg config, rep *report) error { return runConverge(cfg, tinyFamilies, rep) })
}

func TestSmokeServe(t *testing.T) {
	layers := []string{"serve.query_p50_ms", "serve.client_ms.rewire", "serve.handler_ms.step", "serve.events", "core.pool.memo_hit_ratio"}
	smoke(t, layers, func(cfg config, rep *report) error {
		return runServe(cfg, serveSize{n: 12, clients: 2, passOps: 40}, rep)
	})
}

func TestSmokeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every spec of `bbncg all`")
	}
	layers := []string{"experiments.fig1_s", "experiments.eval_busy_s", "runner.self_s", "store.records"}
	smoke(t, layers, func(cfg config, rep *report) error { return runSweep(cfg, experiments.Quick, rep) })
}
