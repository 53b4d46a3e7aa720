package dynamics

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkDynamicsRoundIncremental is the headline A/B of this layer:
// one full greedy dynamics round with the incremental path (round-level
// cache pool + delta-BFS repair + bitset MAX kernel) against the PR 1
// cached path (refill-per-mover, BBNCG_INCREMENTAL=0). The measured op
// is one round over a profile the dynamics have settled into — the
// regime that dominates converging runs, and exactly the shape ISSUE 4
// targets: the refill path rebuilds every player's dist_{G-u} from
// scratch although (almost) nothing moved, the incremental path serves
// every player from its repaired pool entry. The n=128 case doubles as
// a CI regression guard by asserting both modes produce identical
// results before timing.
func BenchmarkDynamicsRoundIncremental(b *testing.B) {
	for _, cfg := range []struct {
		n    int
		ver  core.Version
		pool int64 // pool budget bytes; 0 = DefaultPoolBudget
		tag  string
	}{
		{128, core.MAX, 0, ""},
		{512, core.MAX, 0, ""},
		{512, core.SUM, 0, ""},
		// At n=1024 the default 1 GiB budget pools ~244 of 1024 players;
		// the fullpool variant (-poolmb 5120 equivalent) pools everyone —
		// ~4.3 GiB resident, so it only runs when explicitly requested
		// (BENCH_FULLPOOL=1), keeping the CI bench smoke small-memory.
		{1024, core.MAX, 0, ""},
		{1024, core.MAX, 5 << 30, "-fullpool"},
	} {
		cfg := cfg
		// One nested level per config, so -bench filters (e.g. the CI
		// n=128 gate) prune the expensive settle runs of the other sizes.
		b.Run(fmt.Sprintf("n=%d/%v%s", cfg.n, cfg.ver, cfg.tag), func(b *testing.B) {
			if cfg.pool > 0 && os.Getenv("BENCH_FULLPOOL") == "" {
				b.Skip("set BENCH_FULLPOOL=1 to run the 4.3 GiB full-pool variant")
			}
			if cfg.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				// Keep the generic `-bench . -benchtime=1x` CI smoke a
				// smoke: the large configs cost ~40s of settle/warm-up and
				// a multi-hundred-MB pool per run (BENCH_2.json runs them
				// with BENCH_LARGE=1 locally).
				b.Skip("set BENCH_LARGE=1 to run the n>=512 configs")
			}
			g := core.UniformGame(cfg.n, 2, cfg.ver)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			// Settle: a few rounds of (incremental) dynamics move the
			// profile into the converging regime; the settled graph is the
			// bench input.
			pre, err := Run(g, start, Options{
				Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder, MaxRounds: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			settled := pre.Final
			opts := Options{
				Responder: core.GreedyResponder,
				Cached:    core.GreedyDeviatorResponder,
				MaxRounds: 1,
			}
			if cfg.n == 128 {
				assertModesAgree(b, g, settled, opts)
			}
			for _, mode := range []struct{ name, env string }{
				{"incremental", "1"},
				{"refill", "0"},
			} {
				if cfg.tag != "" && mode.env == "0" {
					continue // the refill baseline does not depend on the pool budget
				}
				b.Run(mode.name, func(b *testing.B) {
					b.Setenv("BBNCG_INCREMENTAL", mode.env)
					// Pin the stamp fast paths off: this benchmark measures
					// the repair machinery itself, which stamped settled
					// rounds would skip entirely (BenchmarkDynamicsRoundStamps
					// is that A/B).
					b.Setenv("BBNCG_STAMPS", "0")
					runOpts := opts
					if mode.env == "1" {
						// The pool is the round-level state under test: share
						// it across the measured rounds the way one long Run
						// shares it across its rounds. The untimed warm-up
						// rounds fill the matrices and pass the stability
						// hysteresis that gates the bitset MAX kernel.
						runOpts.Pool = core.NewCachePool(g, cfg.pool)
						defer runOpts.Pool.Close()
						for i := 0; i < 3; i++ {
							if _, err := Run(g, settled, runOpts); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := Run(g, settled, runOpts)
						if err != nil {
							b.Fatal(err)
						}
						if res.Rounds == 0 {
							b.Fatal("no rounds executed")
						}
					}
				})
			}
		})
	}
}

// BenchmarkDynamicsRoundSUM is the headline A/B of the SUM evaluation
// kernel (ISSUE 5): one full greedy dynamics round over a settled SUM
// profile, with the incremental pool on in both modes, comparing the
// blocked min-merge + candidate-pruning kernel (BBNCG_SUMKERNEL=1,
// the default) against the scalar min-merge paths it replaced
// (BBNCG_SUMKERNEL=0). The settled round is the regime the kernel
// targets: the pool already removed the matrix refills, so the scalar
// O(n) min-merge per candidate is what dominates — exactly the cost the
// pruning bounds cut. The n=128 case doubles as a CI regression guard
// by asserting both modes produce identical dynamics before timing.
func BenchmarkDynamicsRoundSUM(b *testing.B) {
	for _, cfg := range []struct{ n int }{{128}, {512}} {
		cfg := cfg
		b.Run(fmt.Sprintf("n=%d", cfg.n), func(b *testing.B) {
			if cfg.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				b.Skip("set BENCH_LARGE=1 to run the n>=512 configs")
			}
			g := core.UniformGame(cfg.n, 2, core.SUM)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			pre, err := Run(g, start, Options{
				Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder, MaxRounds: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			settled := pre.Final
			opts := Options{
				Responder: core.GreedyResponder,
				Cached:    core.GreedyDeviatorResponder,
				MaxRounds: 1,
			}
			if cfg.n == 128 {
				assertSumModesAgree(b, g, settled, opts)
			}
			for _, mode := range []struct{ name, env string }{
				{"kernel", "1"},
				{"scalar", "0"},
			} {
				b.Run(mode.name, func(b *testing.B) {
					b.Setenv("BBNCG_SUMKERNEL", mode.env)
					// Pin the stamp fast paths off: stamped settled rounds
					// skip the candidate scans this benchmark measures.
					b.Setenv("BBNCG_STAMPS", "0")
					runOpts := opts
					// The pool is shared across measured rounds the way one
					// long run shares it across its rounds; the untimed
					// warm-up rounds fill the matrices (and, in kernel mode,
					// the column-min pruning bounds).
					runOpts.Pool = core.NewCachePool(g, 0)
					defer runOpts.Pool.Close()
					for i := 0; i < 3; i++ {
						if _, err := Run(g, settled, runOpts); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := Run(g, settled, runOpts)
						if err != nil {
							b.Fatal(err)
						}
						if res.Rounds == 0 {
							b.Fatal("no rounds executed")
						}
					}
				})
			}
		})
	}
}

// assertSumModesAgree fails the benchmark if the blocked SUM kernel and
// the scalar min-merge paths diverge — the CI SUM bench gate runs this
// at n=128 before timing, so a pruning-soundness regression fails fast
// instead of surfacing as a golden drift. Each mode runs several rounds
// over a pool shared across runs, exactly like the timed loops: the
// pruning machinery only engages for pool-owned Deviators past the
// stability hysteresis, so a single cold run would compare two copies
// of the trivial path and assert nothing about the bounds or the memo.
// Every run of the sequence is compared pairwise, covering the cold
// (fill), warming (bounds built) and warm (memo-served) rounds.
func assertSumModesAgree(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) {
	b.Helper()
	runs := func(env string) []Result {
		b.Setenv("BBNCG_SUMKERNEL", env)
		b.Setenv("BBNCG_STAMPS", "0") // compare the kernels, not the stamp skip
		o := opts
		o.Pool = core.NewCachePool(g, 0)
		defer o.Pool.Close()
		var out []Result
		for i := 0; i < 4; i++ {
			res, err := Run(g, start, o)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	kernel := runs("1")
	scalar := runs("0")
	for i := range kernel {
		if kernel[i].Moves != scalar[i].Moves || kernel[i].Rounds != scalar[i].Rounds ||
			!kernel[i].Final.Equal(scalar[i].Final) {
			b.Fatalf("SUM kernel and scalar dynamics diverge on run %d:\nkernel %+v\nscalar %+v",
				i, kernel[i], scalar[i])
		}
	}
}

// BenchmarkDynamicsRoundStamps is the headline A/B of the settled-round
// ladder (ISSUE 7): one full greedy dynamics round over a *converged*
// profile, with the incremental pool on in both modes, comparing
// generation-stamped resync (BBNCG_STAMPS=1, the default: anchor
// comparisons, journal delta repair, round memo) against the diff-always
// path it replaced (BBNCG_STAMPS=0: every acquisition rebuilds
// UnderlyingWithout and diffs it). The converged round is the regime the
// stamps target — nothing moves, so the diff path's per-player O(n+m)
// resync is pure overhead and the stamped round is O(movers) = O(1).
// The n=128 case doubles as a CI regression guard: both modes must
// produce identical dynamics, and a stamped settled round must report
// zero resyncs and zero delta repairs for untouched players.
func BenchmarkDynamicsRoundStamps(b *testing.B) {
	for _, cfg := range []struct{ n int }{{128}, {512}} {
		cfg := cfg
		b.Run(fmt.Sprintf("n=%d", cfg.n), func(b *testing.B) {
			if cfg.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				b.Skip("set BENCH_LARGE=1 to run the n>=512 configs")
			}
			g := core.UniformGame(cfg.n, 2, core.SUM)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			// Settle to full convergence — the measured round must contain
			// no movers, or the zero-resync invariant below would be vacuous.
			pre, err := Run(g, start, Options{
				Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder, MaxRounds: 600,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !pre.Converged {
				b.Fatal("dynamics did not converge within the settle budget")
			}
			settled := pre.Final
			opts := Options{
				Responder: core.GreedyResponder,
				Cached:    core.GreedyDeviatorResponder,
				MaxRounds: 1,
			}
			if cfg.n == 128 {
				assertStampModesAgree(b, g, settled, opts)
			}
			for _, mode := range []struct{ name, env string }{
				{"stamps", "1"},
				{"diff", "0"},
			} {
				b.Run(mode.name, func(b *testing.B) {
					b.Setenv("BBNCG_STAMPS", mode.env)
					runOpts := opts
					runOpts.Pool = core.NewCachePool(g, 0)
					defer runOpts.Pool.Close()
					for i := 0; i < 3; i++ {
						if _, err := Run(g, settled, runOpts); err != nil {
							b.Fatal(err)
						}
					}
					if mode.env == "1" {
						// The O(movers) invariant, gated in CI at n=128: a
						// warm settled round resyncs no untouched player.
						before := runOpts.Pool.Stats()
						if _, err := Run(g, settled, runOpts); err != nil {
							b.Fatal(err)
						}
						after := runOpts.Pool.Stats()
						if d := after.Resyncs - before.Resyncs; d != 0 {
							b.Fatalf("settled round ran %d resyncs, want 0 (stats %+v)", d, after)
						}
						if d := after.DeltaRepairs - before.DeltaRepairs; d != 0 {
							b.Fatalf("settled round ran %d delta repairs, want 0", d)
						}
						if d := after.Derives - before.Derives; d != 0 {
							b.Fatalf("settled round derived %d matrices, want 0", d)
						}
						if after.StampSkips+after.MemoHits <= before.StampSkips+before.MemoHits {
							b.Fatalf("settled round exercised no stamp fast path (stats %+v)", after)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := Run(g, settled, runOpts)
						if err != nil {
							b.Fatal(err)
						}
						if res.Rounds == 0 {
							b.Fatal("no rounds executed")
						}
					}
				})
			}
		})
	}
}

// assertStampModesAgree fails the benchmark if the stamped and
// diff-always paths diverge, comparing several consecutive runs over
// shared pools pairwise — cold, warming and warm (memo-served) rounds —
// exactly like the timed loops.
func assertStampModesAgree(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) {
	b.Helper()
	runs := func(env string) []Result {
		b.Setenv("BBNCG_STAMPS", env)
		o := opts
		o.Pool = core.NewCachePool(g, 0)
		defer o.Pool.Close()
		var out []Result
		for i := 0; i < 4; i++ {
			res, err := Run(g, start, o)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	stamped := runs("1")
	diffed := runs("0")
	for i := range stamped {
		if stamped[i].Moves != diffed[i].Moves || stamped[i].Rounds != diffed[i].Rounds ||
			!stamped[i].Final.Equal(diffed[i].Final) {
			b.Fatalf("stamped and diff-always dynamics diverge on run %d:\nstamps %+v\ndiff   %+v",
				i, stamped[i], diffed[i])
		}
	}
}

// BenchmarkDynamicsRoundWeighted is the headline A/B of the weighted
// distance kernel (ISSUE 9): one full greedy dynamics round over a
// settled *arc-weighted* SUM profile, comparing the weighted cache tier
// (Δ-stepping fill, incremental weighted repair, stamps, SUM kernel —
// all defaults) against the scalar reference it replaced (per-candidate
// Dijkstra: BBNCG_WSTEP=0 forces scalar fills/refills, and with stamps
// and the SUM kernel off the pool diffs and min-merges the historical
// way). The settled round is the regime the tier targets: the reference
// path re-runs Dijkstra work the warm weighted rows already hold. The
// n=128 case doubles as a CI regression guard: both modes must produce
// identical dynamics (stepping ≡ Dijkstra, end to end), and a stamped
// settled weighted round must report zero resyncs — weight staleness
// rides the generation counter, never the topology ladder.
func BenchmarkDynamicsRoundWeighted(b *testing.B) {
	for _, cfg := range []struct{ n int }{{128}, {512}} {
		cfg := cfg
		b.Run(fmt.Sprintf("n=%d", cfg.n), func(b *testing.B) {
			if cfg.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				b.Skip("set BENCH_LARGE=1 to run the n>=512 configs")
			}
			g := core.UniformGame(cfg.n, 2, core.SUM)
			wts := graph.NewWeights(cfg.n, 9, 8)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			// Settle to full convergence — the measured round must contain
			// no movers, or the zero-resync invariant below would be vacuous.
			pre, err := Run(g, start, Options{
				Responder: core.WeightedGreedyResponder(wts),
				Cached:    core.GreedyDeviatorResponder,
				Weights:   wts,
				MaxRounds: 600,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !pre.Converged {
				b.Fatal("weighted dynamics did not converge within the settle budget")
			}
			settled := pre.Final
			opts := Options{
				Responder: core.WeightedGreedyResponder(wts),
				Cached:    core.GreedyDeviatorResponder,
				Weights:   wts,
				MaxRounds: 1,
			}
			if cfg.n == 128 {
				assertWeightedModesAgree(b, g, settled, opts)
			}
			for _, mode := range []struct{ name, wstep, stamps, kernel string }{
				{"kernel", "1", "1", "1"},
				{"reference", "0", "0", "0"},
			} {
				b.Run(mode.name, func(b *testing.B) {
					b.Setenv("BBNCG_WSTEP", mode.wstep)
					b.Setenv("BBNCG_STAMPS", mode.stamps)
					b.Setenv("BBNCG_SUMKERNEL", mode.kernel)
					runOpts := opts
					runOpts.Pool = core.NewWeightedCachePool(g, 0, wts)
					defer runOpts.Pool.Close()
					for i := 0; i < 3; i++ {
						if _, err := Run(g, settled, runOpts); err != nil {
							b.Fatal(err)
						}
					}
					if mode.name == "kernel" {
						// The settled weighted invariant, gated in CI at n=128:
						// a warm settled round resyncs no untouched player and
						// runs no weight repairs (the weight stream is quiet).
						before := runOpts.Pool.Stats()
						if _, err := Run(g, settled, runOpts); err != nil {
							b.Fatal(err)
						}
						after := runOpts.Pool.Stats()
						if d := after.Resyncs - before.Resyncs; d != 0 {
							b.Fatalf("settled weighted round ran %d resyncs, want 0 (stats %+v)", d, after)
						}
						if d := after.Repairs - before.Repairs; d != 0 {
							b.Fatalf("settled weighted round ran %d weight repairs, want 0", d)
						}
						if d := after.Derives - before.Derives; d != 0 {
							b.Fatalf("settled weighted round derived %d matrices, want 0", d)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := Run(g, settled, runOpts)
						if err != nil {
							b.Fatal(err)
						}
						if res.Rounds == 0 {
							b.Fatal("no rounds executed")
						}
					}
				})
			}
		})
	}
}

// assertWeightedModesAgree fails the benchmark if the weighted kernel
// tier and the scalar Dijkstra reference diverge, comparing several
// consecutive runs over shared weighted pools pairwise — cold, warming
// and warm rounds — exactly like the timed loops.
func assertWeightedModesAgree(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) {
	b.Helper()
	runs := func(env string) []Result {
		b.Setenv("BBNCG_WSTEP", env)
		b.Setenv("BBNCG_STAMPS", env)
		b.Setenv("BBNCG_SUMKERNEL", env)
		o := opts
		o.Pool = core.NewWeightedCachePool(g, 0, o.Weights)
		defer o.Pool.Close()
		var out []Result
		for i := 0; i < 4; i++ {
			res, err := Run(g, start, o)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	kernel := runs("1")
	reference := runs("0")
	for i := range kernel {
		if kernel[i].Moves != reference[i].Moves || kernel[i].Rounds != reference[i].Rounds ||
			!kernel[i].Final.Equal(reference[i].Final) {
			b.Fatalf("weighted kernel and Dijkstra-reference dynamics diverge on run %d:\nkernel    %+v\nreference %+v",
				i, kernel[i], reference[i])
		}
	}
}

// BenchmarkDynamicsRunIncremental measures whole bounded runs from a
// random profile — the adversarial mix for the pool: the early rounds
// carry heavy move traffic (repairs degrade to refills plus bookkeeping)
// before the converging tail starts paying. Kept honest alongside the
// settled-round headline.
func BenchmarkDynamicsRunIncremental(b *testing.B) {
	g := core.UniformGame(256, 2, core.MAX)
	start := RandomProfile(g, rand.New(rand.NewSource(9)))
	opts := Options{
		Responder: core.GreedyResponder,
		Cached:    core.GreedyDeviatorResponder,
		MaxRounds: 6,
	}
	for _, mode := range []struct{ name, env string }{
		{"incremental", "1"},
		{"refill", "0"},
	} {
		b.Run(fmt.Sprintf("n=256/MAX/%s", mode.name), func(b *testing.B) {
			b.Setenv("BBNCG_INCREMENTAL", mode.env)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, start, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// assertModesAgree fails the benchmark if the incremental and refill
// paths diverge — the CI bench smoke runs one iteration of every
// benchmark, so a repair-path regression fails fast here.
func assertModesAgree(b *testing.B, g *core.Game, start *graph.Digraph, opts Options) {
	b.Helper()
	b.Setenv("BBNCG_STAMPS", "0") // compare the repair paths, not the stamp skip
	b.Setenv("BBNCG_INCREMENTAL", "1")
	inc, err := Run(g, start, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Setenv("BBNCG_INCREMENTAL", "0")
	ref, err := Run(g, start, opts)
	if err != nil {
		b.Fatal(err)
	}
	if inc.Moves != ref.Moves || inc.Rounds != ref.Rounds || !inc.Final.Equal(ref.Final) {
		b.Fatalf("incremental and refill dynamics diverge:\nincremental %+v\nrefill      %+v", inc, ref)
	}
}

func BenchmarkRunUnitExact(b *testing.B) {
	g := core.UniformGame(32, 1, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, start, Options{
			Responder: core.ExactResponder(0), DetectLoops: true, MaxRounds: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunGreedyBudget3(b *testing.B) {
	g := core.UniformGame(48, 3, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, start, Options{
			Responder: core.GreedyResponder, DetectLoops: true, MaxRounds: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSimultaneous(b *testing.B) {
	g := core.UniformGame(16, 1, core.MAX)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSimultaneous(g, start, Options{
			Responder: core.ExactResponder(0), MaxRounds: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelfareTrace(b *testing.B) {
	g := core.UniformGame(24, 1, core.SUM)
	rng := rand.New(rand.NewSource(1))
	start := RandomProfile(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WelfareTrace(g, start, Options{
			Responder: core.ExactResponder(0), MaxRounds: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
