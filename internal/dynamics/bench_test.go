package dynamics

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkDynamicsRound times the production engine — a run-owned
// cache pool with the full acquisition ladder, greedy responders — on
// the two regimes of a dynamics run, per row of {SUM, MAX, arc-weighted
// SUM} × n:
//
//   - converge: one whole run from a random profile to convergence,
//     where heavy move traffic keeps the shared-matrix repairs and the
//     private-row refills busy;
//   - settled: one round over the converged profile on a warm pool,
//     which must be O(movers) = O(1): stamp skips and memo hits only.
//
// Before timing, every row asserts that a warm settled round does no
// row work (no fills, resyncs, repairs or refilled rows), the n=128
// rows — the CI gate — that the pooled converge run matches the oracle
// run (runOracle) exactly, and the n=1024 row that the default budget
// pools every player. The n>=512 rows run with BENCH_LARGE=1.
func BenchmarkDynamicsRound(b *testing.B) {
	for _, row := range []struct {
		n        int
		ver      core.Version
		weighted bool
	}{
		{n: 128, ver: core.SUM},
		{n: 128, ver: core.MAX},
		{n: 128, ver: core.SUM, weighted: true},
		{n: 512, ver: core.SUM},
		{n: 512, ver: core.MAX},
		{n: 512, ver: core.SUM, weighted: true},
		// The default 1 GiB budget pools every player of n=1024.
		{n: 1024, ver: core.MAX},
	} {
		kind := row.ver.String()
		if row.weighted {
			kind = "weighted"
		}
		// One nested level per row, so -bench filters (e.g. the CI n=128
		// gate) prune the expensive settle runs of the other rows.
		b.Run(fmt.Sprintf("n=%d/%s", row.n, kind), func(b *testing.B) {
			if row.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				b.Skip("set BENCH_LARGE=1 to run the n>=512 rows")
			}
			g := core.UniformGame(row.n, 2, row.ver)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			opts := Options{
				Responder: core.GreedyResponder,
				Cached:    core.GreedyDeviatorResponder,
				MaxRounds: 600,
			}
			if row.weighted {
				opts.Weights = graph.NewWeights(row.n, 9, 8)
				opts.Responder = core.WeightedGreedyResponder(opts.Weights)
			}
			pool := core.NewWeightedCachePool(g, 0, opts.Weights)
			pooled := opts
			pooled.Pool = pool
			pre, err := Run(g, start, pooled)
			st := pool.Stats()
			pool.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !pre.Converged {
				b.Fatal("dynamics did not converge within the settle budget")
			}
			if st.Unpooled != 0 {
				b.Fatalf("the default budget left %d acquisitions unpooled (stats %+v)", st.Unpooled, st)
			}
			if row.n == 128 {
				assertSameResult(b, "pooled vs oracle converge run", pre, runOracle(b, Run, g, start, opts))
			}
			b.Run("converge", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Run(g, start, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("settled", func(b *testing.B) {
				settled := opts
				settled.MaxRounds = 1
				// The pool is the round-level state under test: shared across
				// the measured rounds the way one long run shares it across
				// its rounds. The untimed warm-up rounds fill the matrices and
				// pass the stability hysteresis.
				settled.Pool = core.NewWeightedCachePool(g, 0, opts.Weights)
				defer settled.Pool.Close()
				for i := 0; i < 3; i++ {
					if _, err := Run(g, pre.Final, settled); err != nil {
						b.Fatal(err)
					}
				}
				assertSettledRoundFree(b, g, pre.Final, settled)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(g, pre.Final, settled)
					if err != nil {
						b.Fatal(err)
					}
					if res.Rounds == 0 {
						b.Fatal("no rounds executed")
					}
				}
			})
		})
	}
}

// assertSettledRoundFree fails the benchmark unless one more round over
// the converged profile on the warm pool does no row work: no fills,
// resyncs, repairs of the shared matrix or refilled rows (shared or
// private) — only stamp skips and memo hits. This is the O(movers)
// invariant.
func assertSettledRoundFree(b *testing.B, g *core.Game, settled *graph.Digraph, opts Options) {
	b.Helper()
	before := opts.Pool.Stats()
	res, err := Run(g, settled, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Moves != 0 {
		b.Fatalf("settled profile moved: %+v", res)
	}
	after := opts.Pool.Stats()
	for _, c := range []struct {
		what string
		d    int64
	}{
		{"fills", after.Fills - before.Fills},
		{"resyncs", after.Resyncs - before.Resyncs},
		{"delta repairs", after.DeltaRepairs - before.DeltaRepairs},
		{"refilled rows", after.RowsRefilled - before.RowsRefilled},
		{"repairs", after.Repairs - before.Repairs},
	} {
		if c.d != 0 {
			b.Fatalf("settled round ran %d %s, want 0 (stats %+v)", c.d, c.what, after)
		}
	}
	if after.StampSkips+after.MemoHits <= before.StampSkips+before.MemoHits {
		b.Fatalf("settled round exercised no stamp fast path (stats %+v)", after)
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
