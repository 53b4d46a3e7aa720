// bbncg loadgen drives a mixed create/rewire/bestresponse/dynamics
// workload at a running `bbncg serve` instance through the typed
// client (pkg/bbncg/client) and reports throughput, per-class latency
// quantiles and a latency histogram against the pool's warm-cache
// counters (StampSkips / DeltaRepairs / Resyncs / Fills / RowsRefilled /
// MemoHits).
//
// The run is three phases over -sessions concurrent sessions:
//
//  1. traffic — each session's worker plays a seeded op mix
//     (bestresponse, improving rewires, welfare, equilibrium, plain
//     and streamed dynamics, cross-session read batches);
//  2. settle — dynamics to convergence plus a full best-response
//     sweep per session, leaving every session's round memo warm;
//  3. hammer — repeated queries against the settled sessions, with
//     pool counters snapshotted around them.
//
// -check turns the report into a gate: zero failed requests, zero
// additional resyncs, delta-repairs, fills AND refilled rows on settled
// sessions (no row work: the warm path must serve the hammer phase
// entirely from stamps and memos),
// a streamed-vs-plain twin run with byte-identical traces, and an
// optional -p99ms ceiling. Gate failures exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/pkg/bbncg"
	"repro/pkg/bbncg/api"
	"repro/pkg/bbncg/client"
)

// latency classes reported per op kind.
const (
	lcCreate       = "create"
	lcRewire       = "rewire"
	lcBestResponse = "bestresponse"
	lcEquilibrium  = "equilibrium"
	lcWelfare      = "welfare"
	lcDynamics     = "dynamics"
	lcStream       = "stream"
	lcBatch        = "batch"
)

// histEdges are the histogram bucket upper bounds in milliseconds; the
// last bucket is unbounded.
var histEdges = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// recorder accumulates latency samples and failures across workers.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64 // class -> latencies in ms
	failed  []string             // failure descriptions (gate + report)
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64)}
}

// observe times one op and records its outcome.
func (r *recorder) observe(class string, fn func() error) error {
	start := time.Now()
	err := fn()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[class] = append(r.samples[class], ms)
	if err != nil {
		r.failed = append(r.failed, fmt.Sprintf("%s: %v", class, err))
	}
	return err
}

// classStats is one op class's latency summary.
type classStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50ms"`
	P90   float64 `json:"p90ms"`
	P99   float64 `json:"p99ms"`
	Max   float64 `json:"maxMs"`
}

// histBucket is one cumulative histogram bucket (Prometheus-style le).
type histBucket struct {
	LE    float64 `json:"leMs"` // 0 marks the +Inf bucket
	Count int     `json:"count"`
}

// poolCounters are the warm-cache ladder counters summed over sessions.
type poolCounters struct {
	StampSkips   int64 `json:"stampSkips"`
	DeltaRepairs int64 `json:"deltaRepairs"`
	Resyncs      int64 `json:"resyncs"`
	Fills        int64 `json:"fills"`
	RowsRefilled int64 `json:"rowsRefilled"`
	MemoHits     int64 `json:"memoHits"`
}

func sumPool(ss []api.SessionStats, ids map[string]bool) poolCounters {
	var pc poolCounters
	for _, st := range ss {
		if !ids[st.ID] {
			continue
		}
		pc.StampSkips += st.Pool.StampSkips
		pc.DeltaRepairs += st.Pool.DeltaRepairs
		pc.Resyncs += st.Pool.Resyncs
		pc.Fills += st.Pool.Fills
		pc.RowsRefilled += st.Pool.RowsRefilled
		pc.MemoHits += st.Pool.MemoHits
	}
	return pc
}

func (a poolCounters) sub(b poolCounters) poolCounters {
	return poolCounters{
		StampSkips:   a.StampSkips - b.StampSkips,
		DeltaRepairs: a.DeltaRepairs - b.DeltaRepairs,
		Resyncs:      a.Resyncs - b.Resyncs,
		Fills:        a.Fills - b.Fills,
		RowsRefilled: a.RowsRefilled - b.RowsRefilled,
		MemoHits:     a.MemoHits - b.MemoHits,
	}
}

// report is the loadgen output (-json emits it verbatim).
type report struct {
	Sessions    int     `json:"sessions"`
	OpsPerSess  int     `json:"opsPerSession"`
	Seed        int64   `json:"seed"`
	DurationSec float64 `json:"durationSec"`
	Requests    int     `json:"requests"`
	OpsPerSec   float64 `json:"opsPerSec"`
	Failed      int     `json:"failed"`

	Classes   map[string]classStats `json:"classes"`
	Histogram []histBucket          `json:"histogramMs"`

	// Traffic counts the whole run's counter movement; Hammer is the
	// settled-phase delta the zero-resync gate asserts on.
	Traffic poolCounters `json:"traffic"`
	Hammer  poolCounters `json:"hammer"`

	StreamByteIdentical *bool   `json:"streamByteIdentical,omitempty"`
	WorstP99            float64 `json:"worstP99ms"`
}

func loadgenMain(args []string) {
	fs := flag.NewFlagSet("bbncg loadgen", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "serve instance to drive (host:port or URL)")
	sessions := fs.Int("sessions", 8, "concurrent sessions to create and drive")
	n := fs.Int("n", 24, "players per session")
	b := fs.Int("b", 2, "budget per player (random graph generator)")
	seed := fs.Int64("seed", 1, "workload seed (graphs and op mixes are deterministic in it)")
	ops := fs.Int("ops", 120, "traffic ops per session before the settle phase")
	p99ms := fs.Float64("p99ms", 0, "with -check: fail if any op class's p99 exceeds this many ms (0 = no ceiling)")
	check := fs.Bool("check", false, "assert the gates: zero failed requests, zero settled resyncs/repairs, stream-vs-plain byte identity")
	jsonOut := fs.String("json", "", "write the JSON report to this path (\"-\" = stdout)")
	keep := fs.Bool("keep", false, "leave the loadgen sessions on the server (default deletes them)")
	key := fs.String("key", "loadgen", "X-Api-Key identifying this client to the server's quota")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bbncg loadgen -addr HOST:PORT [-sessions N] [-n N] [-b N] [-seed N] [-ops N] [-check [-p99ms MS]] [-json PATH] [-keep]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 0 || *sessions < 1 {
		fs.Usage()
		os.Exit(2)
	}
	c := client.New(*addr, client.WithAPIKey(*key))
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		fatal(fmt.Errorf("loadgen: no serve instance at %s: %w", *addr, err))
	}
	if vi, err := c.Versions(ctx); err != nil || vi.API != api.Version {
		fatal(fmt.Errorf("loadgen: server speaks %q, client %q (%v)", vi.API, api.Version, err))
	}

	rec := newRecorder()
	ids := make([]string, *sessions)
	idSet := make(map[string]bool, *sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("loadgen-%d-%d", *seed, i)
		idSet[ids[i]] = true
	}
	specOf := func(i int) *bbncg.GeneratorSpec {
		return &bbncg.GeneratorSpec{Kind: "random", N: *n, B: *b, Seed: *seed*1000 + int64(i)}
	}
	cleanup := func(all []string) {
		for _, id := range all {
			c.DeleteSession(ctx, id) //nolint:errcheck // absent ids are fine
		}
	}
	cleanup(ids) // a previous run may have left them behind (-keep)

	start := time.Now()
	baseline, err := c.Stats(ctx)
	if err != nil {
		fatal(fmt.Errorf("loadgen: statsz: %w", err))
	}
	before := sumPool(baseline.Sessions, idSet)

	// Phase 1 — create, then seeded mixed traffic, one worker per
	// session. Batches are read-only across sessions, so workers stay
	// independent while the batch path still crosses them.
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(i)*7919))
			err := rec.observe(lcCreate, func() error {
				_, err := c.CreateSession(ctx, api.CreateRequest{ID: id, Graph: specOf(i)})
				return err
			})
			if err != nil {
				return
			}
			for op := 0; op < *ops; op++ {
				player := rng.Intn(*n)
				switch rng.Intn(10) {
				case 0, 1, 2: // query a best response
					rec.observe(lcBestResponse, func() error { //nolint:errcheck
						_, err := c.BestResponse(ctx, id, player, "", 0)
						return err
					})
				case 3, 4: // apply an improving move when one exists
					br, err := c.BestResponse(ctx, id, player, "", 0)
					if err != nil || !br.Improves {
						continue
					}
					rec.observe(lcRewire, func() error { //nolint:errcheck
						_, err := c.Rewire(ctx, id, api.RewireRequest{Player: player, Strategy: br.Strategy})
						return err
					})
				case 5:
					rec.observe(lcWelfare, func() error { //nolint:errcheck
						_, err := c.Welfare(ctx, id)
						return err
					})
				case 6:
					rec.observe(lcEquilibrium, func() error { //nolint:errcheck
						_, err := c.Equilibrium(ctx, id, "", 0)
						return err
					})
				case 7:
					rec.observe(lcDynamics, func() error { //nolint:errcheck
						_, err := c.Dynamics(ctx, id, 1+rng.Intn(3))
						return err
					})
				case 8:
					rec.observe(lcStream, func() error { //nolint:errcheck
						_, err := c.StreamDynamics(ctx, id, 1+rng.Intn(3), 0, nil)
						return err
					})
				case 9: // cross-session read batch
					other := ids[rng.Intn(len(ids))]
					rec.observe(lcBatch, func() error { //nolint:errcheck
						res, err := c.Batch(ctx, []api.BatchOp{
							{Session: id, Op: api.OpWelfare},
							{Session: other, Op: api.OpBestResponse, Player: player},
							{Session: other, Op: api.OpInfo},
						})
						if err != nil {
							return err
						}
						for _, item := range res.Results {
							// The batched session may not exist yet while
							// workers are still creating; that is the one
							// tolerated per-op error.
							if item.Error != nil && item.Error.Code != api.CodeNotFound {
								return fmt.Errorf("batch op %s on %s: %s", item.Op, item.Session, item.Error.Message)
							}
						}
						return nil
					})
				}
			}
		}(i, id)
	}
	wg.Wait()

	// Phase 2 — settle: dynamics to convergence plus a full
	// best-response sweep per session warms every memo.
	for _, id := range ids {
		rep, err := c.Dynamics(ctx, id, 10_000)
		if err != nil {
			fatal(fmt.Errorf("loadgen: settling %s: %w", id, err))
		}
		if !rep.Converged {
			fatal(fmt.Errorf("loadgen: %s did not converge in 10k rounds", id))
		}
		for u := 0; u < *n; u++ {
			if _, err := c.BestResponse(ctx, id, u, "", 0); err != nil {
				fatal(fmt.Errorf("loadgen: settling %s: %w", id, err))
			}
		}
	}

	// Phase 3 — hammer the settled sessions with the counters bracketed:
	// every query must ride stamps and memos, never the resync ladder.
	preHammer, err := c.Stats(ctx)
	if err != nil {
		fatal(fmt.Errorf("loadgen: statsz: %w", err))
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			rec.observe(lcEquilibrium, func() error { //nolint:errcheck
				_, err := c.Equilibrium(ctx, id, "", 0)
				return err
			})
			for u := 0; u < *n; u++ {
				rec.observe(lcBestResponse, func() error { //nolint:errcheck
					_, err := c.BestResponse(ctx, id, u, "", 0)
					return err
				})
			}
		}
	}
	postHammer, err := c.Stats(ctx)
	if err != nil {
		fatal(fmt.Errorf("loadgen: statsz: %w", err))
	}

	rep := rec.buildReport(time.Since(start))
	rep.Sessions = *sessions
	rep.OpsPerSess = *ops
	rep.Seed = *seed
	rep.Traffic = sumPool(postHammer.Sessions, idSet).sub(before)
	rep.Hammer = sumPool(postHammer.Sessions, idSet).sub(sumPool(preHammer.Sessions, idSet))

	// Twin check: a streamed run and a plain run of the same fresh seed
	// must produce byte-identical traces.
	if *check {
		identical, err := twinStreamCheck(ctx, c, *seed, *n, *b)
		if err != nil {
			fatal(fmt.Errorf("loadgen: twin stream check: %w", err))
		}
		rep.StreamByteIdentical = &identical
	}

	if !*keep {
		cleanup(ids)
	}

	if err := rep.emit(*jsonOut); err != nil {
		fatal(err)
	}
	rep.printSummary(os.Stderr)
	if *check {
		if err := rep.gate(*p99ms, rec); err != nil {
			fatal(fmt.Errorf("loadgen: GATE FAILED: %w", err))
		}
		fmt.Fprintln(os.Stderr, "loadgen: all gates passed")
	}
}

// twinStreamCheck creates two sessions from one spec, runs one plain
// and one streamed to convergence, and compares the marshalled traces
// byte for byte.
func twinStreamCheck(ctx context.Context, c *client.Client, seed int64, n, b int) (bool, error) {
	spec := &bbncg.GeneratorSpec{Kind: "random", N: n, B: b, Seed: seed * 31}
	idA := fmt.Sprintf("loadgen-twin-%d-a", seed)
	idB := fmt.Sprintf("loadgen-twin-%d-b", seed)
	for _, id := range []string{idA, idB} {
		c.DeleteSession(ctx, id) //nolint:errcheck // absent is fine
		if _, err := c.CreateSession(ctx, api.CreateRequest{ID: id, Graph: spec}); err != nil {
			return false, err
		}
	}
	defer func() {
		c.DeleteSession(ctx, idA) //nolint:errcheck
		c.DeleteSession(ctx, idB) //nolint:errcheck
	}()
	plain, err := c.Dynamics(ctx, idA, 10_000)
	if err != nil {
		return false, err
	}
	var streamed []api.RoundTrace
	res, err := c.StreamDynamics(ctx, idB, 10_000, 0, func(rt api.RoundTrace) error {
		streamed = append(streamed, rt)
		return nil
	})
	if err != nil {
		return false, err
	}
	if !res.Summary.Converged || len(streamed) != len(plain.Trace) {
		return false, nil
	}
	for i := range streamed {
		got, err := json.Marshal(streamed[i])
		if err != nil {
			return false, err
		}
		want, err := json.Marshal(plain.Trace[i])
		if err != nil {
			return false, err
		}
		if string(got) != string(want) {
			return false, nil
		}
	}
	return true, nil
}

// buildReport folds the samples into quantiles and the histogram.
func (r *recorder) buildReport(elapsed time.Duration) *report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &report{
		DurationSec: elapsed.Seconds(),
		Failed:      len(r.failed),
		Classes:     make(map[string]classStats, len(r.samples)),
	}
	counts := make([]int, len(histEdges)+1)
	for class, xs := range r.samples {
		rep.Requests += len(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q := func(p float64) float64 {
			if len(sorted) == 0 {
				return 0
			}
			i := int(p * float64(len(sorted)-1))
			return sorted[i]
		}
		cs := classStats{Count: len(sorted), P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: sorted[len(sorted)-1]}
		rep.Classes[class] = cs
		if cs.P99 > rep.WorstP99 {
			rep.WorstP99 = cs.P99
		}
		for _, x := range xs {
			i := sort.SearchFloat64s(histEdges, x)
			counts[i]++
		}
	}
	if rep.DurationSec > 0 {
		rep.OpsPerSec = float64(rep.Requests) / rep.DurationSec
	}
	for i, le := range histEdges {
		rep.Histogram = append(rep.Histogram, histBucket{LE: le, Count: counts[i]})
	}
	rep.Histogram = append(rep.Histogram, histBucket{LE: 0, Count: counts[len(histEdges)]})
	return rep
}

// emit writes the JSON report to path ("" skips, "-" is stdout).
func (rep *report) emit(path string) error {
	if path == "" {
		return nil
	}
	var out *os.File
	if path == "-" {
		out = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// printSummary renders the human-readable digest on w.
func (rep *report) printSummary(w *os.File) {
	fmt.Fprintf(w, "loadgen: %d sessions, %d requests in %.2fs (%.0f ops/s), %d failed\n",
		rep.Sessions, rep.Requests, rep.DurationSec, rep.OpsPerSec, rep.Failed)
	classes := make([]string, 0, len(rep.Classes))
	for class := range rep.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cs := rep.Classes[class]
		fmt.Fprintf(w, "loadgen:   %-13s %6d ops  p50 %7.2fms  p90 %7.2fms  p99 %7.2fms\n",
			class, cs.Count, cs.P50, cs.P90, cs.P99)
	}
	fmt.Fprintf(w, "loadgen: traffic counters: +%d stampSkips +%d deltaRepairs +%d resyncs +%d fills +%d rowsRefilled +%d memoHits\n",
		rep.Traffic.StampSkips, rep.Traffic.DeltaRepairs, rep.Traffic.Resyncs, rep.Traffic.Fills, rep.Traffic.RowsRefilled, rep.Traffic.MemoHits)
	fmt.Fprintf(w, "loadgen: settled hammer:   +%d stampSkips +%d deltaRepairs +%d resyncs +%d fills +%d rowsRefilled +%d memoHits\n",
		rep.Hammer.StampSkips, rep.Hammer.DeltaRepairs, rep.Hammer.Resyncs, rep.Hammer.Fills, rep.Hammer.RowsRefilled, rep.Hammer.MemoHits)
}

// gate enforces the -check assertions.
func (rep *report) gate(p99Ceiling float64, rec *recorder) error {
	var errs []error
	if rep.Failed > 0 {
		rec.mu.Lock()
		first := rec.failed[0]
		rec.mu.Unlock()
		errs = append(errs, fmt.Errorf("%d failed request(s), first: %s", rep.Failed, first))
	}
	if h := rep.Hammer; h.Resyncs != 0 || h.DeltaRepairs != 0 || h.Fills != 0 || h.RowsRefilled != 0 {
		errs = append(errs, fmt.Errorf("settled sessions left the warm path: +%d resyncs +%d deltaRepairs +%d fills +%d rowsRefilled during the hammer phase",
			h.Resyncs, h.DeltaRepairs, h.Fills, h.RowsRefilled))
	}
	if rep.Hammer.MemoHits == 0 {
		errs = append(errs, errors.New("settled hammer phase recorded no memo hits (queries not riding the round memo)"))
	}
	if rep.StreamByteIdentical != nil && !*rep.StreamByteIdentical {
		errs = append(errs, errors.New("streamed trace differs from the plain response"))
	}
	if p99Ceiling > 0 && rep.WorstP99 > p99Ceiling {
		errs = append(errs, fmt.Errorf("worst class p99 %.2fms exceeds the %.2fms ceiling", rep.WorstP99, p99Ceiling))
	}
	return errors.Join(errs...)
}
