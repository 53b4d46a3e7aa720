// Command bbncg regenerates every table and figure of "On a Bounded
// Budget Network Creation Game" (SPAA 2011) from the library's exact
// simulators. Every subcommand dispatches through the experiment
// registry (internal/experiments.Specs): each experiment is a Spec — a
// deterministic point list, a pure per-point evaluator, and a renderer
// from stored values to tables — so every command checkpoints, resumes,
// shards, and merges uniformly; `bbncg all` reproduces everything in
// one resumable invocation.
//
// Usage:
//
//	bbncg [-full] [-csv] [-seed N] [-out DIR [-resume] [-shard i/k]] <command>
//	bbncg -out DIR merge <command>
//	bbncg -out DIR fetch SRC [SRC...]
//	bbncg serve -out DIR [-addr :8080]
//	bbncg doctor DIR
//	bbncg version
//	bbncg list
//
// Run `bbncg` with no arguments for the registry-generated command
// list. With -out DIR, results stream point-by-point into a durable
// store (one JSONL shard per experiment, see internal/store); a run
// killed mid-sweep is resumed with -resume, which re-evaluates only the
// missing points and renders output byte-identical to an uninterrupted
// run. SIGINT/SIGTERM stop a checkpointed sweep gracefully: in-flight
// points finish, the store manifest is flushed, and the process exits 5
// with the store ready for -resume. -shard i/k restricts a run to a
// deterministic i-of-k partition of every experiment's point list, the
// unit of scale-out across machines; `fetch` concatenates the shard
// stores and `merge` renders a command's tables purely from the
// combined store, without evaluating anything. `doctor` audits a store
// read-only. `serve` runs the persistent game-session HTTP service
// over the same store machinery (see docs/SERVE.md). See
// docs/RUNNER.md.
//
// Exit codes: 0 success; 1 error; 2 usage; 3 the run completed but
// quarantined point failures (-max-failures; rerun with -resume);
// 4 doctor found problems; 5 a checkpointed sweep was interrupted by
// SIGINT/SIGTERM (continue with -resume).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/version"
)

func main() {
	// serve owns its flag set (its flags are unrelated to the sweep
	// flags), and version must work without parsing anything, so both
	// dispatch before the global flag.Parse.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "loadgen":
			loadgenMain(os.Args[2:])
			return
		case "version", "-version", "--version":
			fmt.Println(version.String())
			return
		}
	}
	full := flag.Bool("full", false, "run the full sweep ranges from EXPERIMENTS.md (slower)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 1, "seed for randomized sweeps")
	out := flag.String("out", "", "stream sweep results into a checkpoint store at this directory")
	resume := flag.Bool("resume", false, "continue an existing store: skip already-evaluated points")
	shardFlag := flag.String("shard", "", "evaluate only partition i of k (\"i/k\") of every point list")
	poolMB := flag.Int64("poolmb", 0, "dynamics distance-cache pool budget in MiB (0 = default 1024); it bounds every byte the pool holds, MAX games' level sets included (see docs/RUNNER.md)")
	retry := flag.Int("retry", 0, "re-attempt each transiently failing point up to N extra times")
	maxFailures := flag.Int("max-failures", 0, "keep going while at most N points fail, quarantining them for -resume (-1 = unlimited, 0 = abort on failure)")
	fsync := flag.Bool("fsync", false, "fsync every store append and manifest write (survives power loss, slower)")
	flag.Usage = usage
	flag.Parse()
	// Fault injection (BBNCG_FAULTS) is armed before anything can hit a
	// failpoint; unset, this is a no-op and every site stays free.
	if err := fault.ArmFromEnv(); err != nil {
		fatal(err)
	}
	effort := experiments.Quick
	if *full {
		effort = experiments.Full
	}
	if *poolMB > 0 {
		core.DefaultPoolBudget = *poolMB << 20
	}
	shard, err := runner.ParseShard(*shardFlag)
	if err != nil {
		fatal(err)
	}
	app := &app{out: os.Stdout, effort: effort, csv: *csv, seed: *seed, shard: shard}
	if *out != "" {
		// Long checkpointed sweeps get progress/ETA lines on stderr;
		// rendered output on stdout is untouched.
		app.progress = os.Stderr
	}

	cmd := flag.Arg(0)
	want := 1
	if cmd == "merge" {
		app.merge = true
		cmd = flag.Arg(1)
		want = 2
	}
	if cmd == "fetch" {
		// fetch concatenates shard stores into -out and exits; it never
		// evaluates or renders anything, so evaluation flags are errors
		// rather than silent no-ops.
		if *out == "" || flag.NArg() < 2 || app.merge {
			usage()
			os.Exit(2)
		}
		if *resume || shard.Active() {
			fatal(fmt.Errorf("fetch only concatenates stores; -resume and -shard do not apply"))
		}
		added, err := store.Concat(*out, flag.Args()[1:]...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fetch: %d record(s) added to %s\n", added, *out)
		return
	}
	if cmd == "doctor" {
		// doctor audits a store directory read-only and exits; the
		// directory is positional, so the store/evaluation flags are
		// usage errors.
		if flag.NArg() != 2 || app.merge || *out != "" || *resume || shard.Active() {
			usage()
			os.Exit(2)
		}
		doctor(flag.Arg(1))
		return
	}
	if cmd == "list" && (*out != "" || *resume || shard.Active() || app.merge) {
		fatal(fmt.Errorf("list only prints the registry; store flags and merge do not apply"))
	}
	if flag.NArg() != want || cmd == "" {
		usage()
		os.Exit(2)
	}
	if app.merge && *out == "" {
		fatal(fmt.Errorf("merge needs -out DIR to read from"))
	}
	if *resume && *out == "" {
		fatal(fmt.Errorf("-resume needs -out DIR (there is no default store)"))
	}
	if shard.Active() {
		if *out == "" {
			fatal(fmt.Errorf("-shard evaluates into a store and renders nothing; it needs -out DIR"))
		}
		if app.merge {
			fatal(fmt.Errorf("merge renders the full point list; -shard applies to evaluation runs"))
		}
	}
	if *fsync && *out == "" {
		fatal(fmt.Errorf("-fsync applies to store writes; it needs -out DIR"))
	}
	if *out != "" && cmd != "list" {
		st, err := store.OpenWith(*out, store.Options{Fsync: *fsync})
		if err != nil {
			fatal(err)
		}
		if !app.merge && !*resume && st.Len() > 0 {
			st.Close()
			fatal(fmt.Errorf("store %s already holds %d result(s); pass -resume to continue it", *out, st.Len()))
		}
		app.st = st
	}
	app.retry = *retry
	app.maxFailures = *maxFailures
	if app.st != nil && !app.merge {
		// Checkpointed evaluation runs stop gracefully on SIGINT/SIGTERM:
		// no new point starts, in-flight points land in the store, the
		// manifest is flushed on close, and the process exits 5 so driving
		// scripts know to come back with -resume. A second signal falls
		// through to the default handler and kills immediately.
		done := make(chan struct{})
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			signal.Stop(sigc)
			app.signalled.Store(true)
			fmt.Fprintln(os.Stderr, "bbncg: interrupted — finishing in-flight points and flushing the store (continue with -resume)")
			close(done)
		}()
		app.done = done
	}
	err = app.run(cmd)
	if app.st != nil {
		if cerr := app.st.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			line := fmt.Sprintf("runner: %d point(s) evaluated, %d served from %s",
				app.evaluated, app.skipped, *out)
			if app.retried > 0 {
				line += fmt.Sprintf(", %d retried", app.retried)
			}
			if app.failed > 0 {
				line += fmt.Sprintf(", %d FAILED (quarantined)", app.failed)
			}
			if app.interrupted > 0 {
				line += fmt.Sprintf(", %d interrupted", app.interrupted)
			}
			if app.shard.Active() {
				line += fmt.Sprintf(", %d outside shard %s", app.filtered, app.shard)
			}
			fmt.Fprintln(os.Stderr, line)
			if app.shard.Active() && len(app.shardCounts) > 0 {
				fmt.Fprintf(os.Stderr, "runner: shard point counts: %s (this shard: %d)\n",
					intsLine(app.shardCounts), app.shard.Index)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	if app.signalled.Load() {
		// The signal handler already explained itself; the distinct exit
		// code is the machine-readable half of the contract. It follows
		// the signal, not the point count: a signal that lands after the
		// last point was dispatched interrupts no point, yet the run was
		// still told to stop and its caller must still see exit 5.
		os.Exit(5)
	}
	if app.failed > 0 {
		// The run finished but -max-failures quarantined some points:
		// nothing was rendered and the store is incomplete. A distinct
		// exit code keeps driving scripts honest.
		fmt.Fprintf(os.Stderr, "bbncg: %d point(s) failed and are quarantined in %s; inspect with `bbncg doctor %s`, retry with -resume\n",
			app.failed, *out, *out)
		os.Exit(3)
	}
}

// doctor runs the read-only store audit, printing the machine-readable
// report on stdout; problems exit 4.
func doctor(dir string) {
	rep, err := store.Audit(dir, append(experiments.SpecNames(), serve.ExpPattern)...)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "bbncg: doctor found %d problem(s) in %s\n", len(rep.Problems), dir)
		os.Exit(4)
	}
	fmt.Fprintf(os.Stderr, "bbncg: doctor found no problems in %s\n", dir)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bbncg: %v\n", err)
	os.Exit(1)
}

// serveMain runs the persistent game-session service (internal/serve):
// sessions are created and queried over HTTP/JSON, every mutation is
// durably event-logged into the -out store, and a restart on the same
// directory replays each session byte-identically. SIGINT/SIGTERM
// drain in-flight requests and flush the store. See docs/SERVE.md.
func serveMain(args []string) {
	fs := flag.NewFlagSet("bbncg serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port, printed on stderr)")
	out := fs.String("out", "", "session store directory (required; reopened stores replay their sessions)")
	sessionMB := fs.Int64("sessionmb", 0, "per-session warm-cache budget in MiB (0 = library default)")
	poolMB := fs.Int64("poolmb", 0, "global warm-cache cap in MiB across sessions; exceeding it evicts LRU sessions' caches (0 = uncapped)")
	anchorEvery := fs.Int("anchor", 0, "event-log snapshot cadence in mutations (0 = default 64)")
	maxN := fs.Int("maxn", 0, "largest session player count accepted (0 = default 4096)")
	fsync := fs.Bool("fsync", false, "fsync every event append (survives power loss, slower)")
	rps := fs.Float64("rps", 0, "per-client token rate on /v1 routes (0 = unthrottled)")
	burst := fs.Int("burst", 0, "per-client token-bucket burst (0 with -rps = 2*rps)")
	inflight := fs.Int("inflight", 0, "per-client concurrent /v1 request cap (0 = uncapped)")
	heartbeat := fs.Duration("heartbeat", 0, "SSE heartbeat cadence for streamed dynamics (0 = default 10s)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bbncg serve -out DIR [-addr :8080] [-sessionmb N] [-poolmb N] [-anchor N] [-maxn N] [-fsync] [-rps N -burst N] [-inflight N] [-heartbeat D]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *out == "" || fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	if err := fault.ArmFromEnv(); err != nil {
		fatal(err)
	}
	m, err := serve.Open(*out, serve.Options{
		SessionPoolBudget: *sessionMB << 20,
		GlobalPoolBudget:  *poolMB << 20,
		AnchorEvery:       *anchorEvery,
		MaxSessionN:       *maxN,
		Fsync:             *fsync,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bbncg serve: %s — %d session(s) replayed from %s\n", version.String(), m.Len(), *out)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ready := make(chan net.Addr, 1)
	go func() {
		// The "listening on" line is the machine-readable half of -addr
		// :0 — the crash suite and the smoke script parse the bound port
		// from it.
		fmt.Fprintf(os.Stderr, "bbncg serve: listening on %s\n", <-ready)
	}()
	cfg := serve.Config{
		Quota:          serve.QuotaConfig{RPS: *rps, Burst: *burst, MaxInFlight: *inflight},
		HeartbeatEvery: *heartbeat,
	}
	if err := serve.Run(ctx, *addr, m, cfg, ready); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "bbncg serve: drained, store flushed")
}

// usage is generated from the command registry, so the help text can
// never drift from what actually dispatches.
func usage() {
	fmt.Fprintf(os.Stderr, `usage: bbncg [-full] [-csv] [-seed N] [-out DIR [-resume] [-shard i/k] [-retry N] [-max-failures N] [-fsync]] <command>
       bbncg -out DIR merge <command>
       bbncg -out DIR fetch SRC [SRC...]
       bbncg serve -out DIR [-addr :8080]
       bbncg loadgen -addr HOST:PORT [-sessions N] [-check]
       bbncg doctor DIR
       bbncg version

commands:
`)
	cmds := experiments.Commands()
	width := len("merge")
	for _, c := range cmds {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, c := range cmds {
		fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, c.Name, c.Desc)
	}
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "list", "print the experiment registry (specs, flags, point counts)")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "merge", "render a command's tables from an existing -out store")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "fetch", "concatenate shard stores (e.g. from -shard runs) into -out")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "doctor", "audit a store directory read-only (counts, checksums, failures)")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "serve", "persistent game-session HTTP service over a durable store (docs/SERVE.md)")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "loadgen", "drive mixed traffic at a running serve instance and report latency/pool gates")
	fmt.Fprintf(os.Stderr, "  %-*s  %s\n", width, "version", "print the build identity (module, VCS revision, go version)")
	fmt.Fprintf(os.Stderr, `
Any spec name from `+"`bbncg list`"+` is also a command. -out DIR
checkpoints results per point (with progress/ETA on stderr); -resume
continues an interrupted -out run; -shard i/k evaluates one
deterministic partition of every point list (run all k shards, fetch,
then merge). -retry N re-attempts transiently failing points;
-max-failures N quarantines up to N failed points for a later -resume
(exit code 3). -poolmb caps the incremental dynamics cache pool. See
docs/RUNNER.md.
`)
}

type app struct {
	out      io.Writer
	effort   experiments.Effort
	csv      bool
	seed     int64
	shard    runner.Shard
	progress io.Writer // stderr for -out runs; nil otherwise

	// Checkpointing state (nil/false without -out).
	st    *store.Store
	merge bool
	// Failure-handling knobs forwarded to runner.Options.
	retry       int
	maxFailures int
	// done, when non-nil, is closed by the signal handler to stop the
	// sweep gracefully (forwarded to runner.Options.Done).
	done <-chan struct{}
	// Resume accounting, reported on stderr and asserted by tests.
	evaluated   int
	skipped     int
	filtered    int
	retried     int
	failed      int
	interrupted int
	// signalled records that the SIGINT/SIGTERM handler fired during a
	// checkpointed run; it alone decides exit code 5.
	signalled atomic.Bool
	// Per-partition point counts summed over the run's specs (sharded
	// runs only).
	shardCounts []int
}

// retryBackoff is the first-retry sleep under -retry; each further
// attempt doubles it (see runner.Options.RetryBackoff).
const retryBackoff = 100 * time.Millisecond

// intsLine renders shard counts as a space-separated list.
func intsLine(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}

func (a *app) emit(t *sweep.Table) error {
	var err error
	if a.csv {
		err = t.CSV(a.out)
	} else {
		err = t.Render(a.out)
	}
	if err == nil {
		_, err = fmt.Fprintln(a.out)
	}
	return err
}

// runSpecs runs (or, under merge, re-renders) the named experiment
// specs against the app's store, emitting every table. Under an active
// shard the evaluated results stream into the store and rendering is
// skipped — a shard holds only part of every point list.
func (a *app) runSpecs(names ...string) error {
	for _, name := range names {
		spec, ok := experiments.SpecByName(name)
		if !ok {
			return fmt.Errorf("no spec %q registered", name)
		}
		job := spec.Job(a.effort, a.seed)
		var rep *runner.Report
		var err error
		if a.merge {
			rep, err = runner.Merge(job, a.st)
		} else {
			rep, err = runner.Run(job, a.st, runner.Options{
				Shard: a.shard, Progress: a.progress,
				Retry: a.retry, RetryBackoff: retryBackoff, MaxFailures: a.maxFailures,
				Done: a.done,
			})
		}
		if err != nil {
			return err
		}
		a.evaluated += rep.Evaluated
		a.skipped += rep.Skipped
		a.filtered += rep.Filtered
		a.retried += rep.Retried
		a.failed += rep.Failed
		a.interrupted += rep.Interrupted
		if rep.ShardCounts != nil {
			if a.shardCounts == nil {
				a.shardCounts = make([]int, len(rep.ShardCounts))
			}
			for i, c := range rep.ShardCounts {
				a.shardCounts[i] += c
			}
		}
		if a.shard.Active() {
			continue
		}
		if rep.Failed > 0 || rep.Interrupted > 0 {
			// Quarantined or interrupted points left nil values; the spec
			// cannot render a partial sweep. The run keeps going so the
			// other specs still checkpoint (an interrupted run drains them
			// near-instantly), and main exits 3 or 5.
			continue
		}
		tables, err := spec.Render(rep.Values)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := a.emit(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// run dispatches one subcommand through the registry.
func (a *app) run(cmd string) error {
	if cmd == "list" {
		return a.list()
	}
	c, ok := experiments.CommandByName(cmd)
	if !ok {
		return fmt.Errorf("unknown command %q (run with no arguments for usage)", cmd)
	}
	return a.runSpecs(c.Specs...)
}

// list prints the experiment registry: every spec with its metadata and
// Quick/Full point counts, then the subcommand bundles.
func (a *app) list() error {
	st := sweep.NewTable("experiment registry (specs)",
		"spec", "kind", "seeded", "points(quick)", "points(full)", "aliases", "description")
	for _, s := range experiments.Specs() {
		aliases := strings.Join(s.Aliases, " ")
		if aliases == "" {
			aliases = "-"
		}
		st.Addf(s.Name, s.Kind, yesNo(s.Seeded),
			len(s.Job(experiments.Quick, a.seed).Points),
			len(s.Job(experiments.Full, a.seed).Points), aliases, s.Desc)
	}
	if err := a.emit(st); err != nil {
		return err
	}
	ct := sweep.NewTable("subcommands", "command", "specs", "description")
	for _, c := range experiments.Commands() {
		ct.Addf(c.Name, len(c.Specs), c.Desc)
	}
	return a.emit(ct)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
