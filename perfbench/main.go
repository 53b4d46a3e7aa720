// Command perfbench is the repository's benchmark. It runs one seeded
// workload — converge, serve or sweep — through the engine's exported
// layers, checks the outputs, and prints every metric as one JSON object
// on the last line of standard output:
//
//	perfbench --workload converge --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run. run.sh builds the
// command from the checkout's sources; README.md defines every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured seconds; every run measures at least one pass
	trace    bool
	workdir  string // scratch stores and span dumps
}

// setupRepeats is how many extra set-ups a run times before measuring;
// setup_s is the median of these and of every pass's own set-up.
const setupRepeats = 21

// serveSetupRepeats is how many times serve starts its server; the last
// one carries the traffic.
const serveSetupRepeats = 5

// workloads maps each workload name to its production-size run.
var workloads = map[string]func(config, *report) error{
	"converge": func(cfg config, rep *report) error { return runConverge(cfg, convergeFamilies, rep) },
	"serve":    func(cfg config, rep *report) error { return runServe(cfg, serveDefault, rep) },
	"sweep":    func(cfg config, rep *report) error { return runSweep(cfg, experiments.Full, rep) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a check failed (the result line says
// "correct": false) or the workload could not run, 2 for a bad command
// line or environment (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: converge, serve or sweep")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "seconds of work to measure")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload converge|serve|sweep --seed N --seconds S --trace 0|1\n")
		return 2
	}
	if err := checkEnv(os.Environ()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintf(stdout, "env %s\n", environment())

	rep := newReport()
	cpu0, cpuErr := readCPUTimes()
	err := runWorkload(cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cpu1, err := readCPUTimes(); err == nil && cpuErr == nil {
		fmt.Fprintf(stdout, "env cpu_steal_share=%.4f\n", stealShare(cpu0, cpu1))
	}
	if _, ok := rep.metrics["peak_rss_mb"]; !ok && !cfg.trace {
		if err := setPeakRSS(rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return emit(stdout, stderr, cfg, rep)
}

// emit prints the report lines and the result line.
func emit(stdout, stderr io.Writer, cfg config, rep *report) int {
	defs, zeroMissing := endToEnd, false
	if cfg.trace {
		defs, zeroMissing = perLayer(), true
	}
	metrics, err := rep.result(defs, zeroMissing)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.digest {
		fmt.Fprintf(stdout, "digest %s\n", line)
	}
	for _, line := range rep.notes {
		fmt.Fprintf(stdout, "note %s\n", line)
	}
	failedChecks := 0
	for _, c := range rep.checks {
		if !c.ok {
			failedChecks++
			fmt.Fprintf(stdout, "check FAIL %s: %s\n", c.name, c.detail)
		}
	}
	fmt.Fprintf(stdout, "checks %d run, %d failed\n", len(rep.checks), failedChecks)
	fmt.Fprintf(stdout, "failed_ratio %.6f (%d of %d)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// checkEnv refuses any BBNCG_* variable: each one silently swaps a
// production path for an alternate one.
func checkEnv(environ []string) error {
	var set []string
	for _, kv := range environ {
		if strings.HasPrefix(kv, "BBNCG_") {
			name, _, _ := strings.Cut(kv, "=")
			set = append(set, name)
		}
	}
	if len(set) > 0 {
		sort.Strings(set)
		return errors.New("refusing to run with " + strings.Join(set, ", ") + " set: unset every BBNCG_* variable")
	}
	return nil
}

// derive mixes seed with parts into a sub-seed (splitmix64 steps), so
// every pass and instance of a run draws its own reproducible input.
func derive(seed int64, parts ...int64) int64 {
	h := uint64(seed)
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15
		h = splitmix(h)
	}
	return int64(splitmix(h) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shortHash is a short hex digest of b for digest lines.
func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
