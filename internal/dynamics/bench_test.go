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
//     where heavy move traffic keeps the fills, repairs and derivations
//     busy;
//   - settled: one round over the converged profile on a warm pool,
//     which must be O(movers) = O(1): stamp skips and memo hits only.
//
// Before timing, every row asserts that a warm settled round does no
// matrix work (no fills, resyncs, delta repairs, derivations or weight
// repairs), and the n=128 rows — the CI gate — that the pooled converge
// run matches the oracle run (runOracle) exactly. The n>=512 rows run
// with BENCH_LARGE=1, the 4.3 GiB full-pool row with BENCH_FULLPOOL=1.
func BenchmarkDynamicsRound(b *testing.B) {
	for _, row := range []struct {
		n        int
		ver      core.Version
		weighted bool
		pool     int64 // pool budget bytes; 0 = DefaultPoolBudget
		tag      string
	}{
		{n: 128, ver: core.SUM},
		{n: 128, ver: core.MAX},
		{n: 128, ver: core.SUM, weighted: true},
		{n: 512, ver: core.SUM},
		{n: 512, ver: core.MAX},
		{n: 512, ver: core.SUM, weighted: true},
		// At n=1024 the default 1 GiB budget pools ~244 of 1024 players;
		// the full-pool row pools everyone.
		{n: 1024, ver: core.MAX},
		{n: 1024, ver: core.MAX, pool: 5 << 30, tag: "-fullpool"},
	} {
		kind := row.ver.String()
		if row.weighted {
			kind = "weighted"
		}
		// One nested level per row, so -bench filters (e.g. the CI n=128
		// gate) prune the expensive settle runs of the other rows.
		b.Run(fmt.Sprintf("n=%d/%s%s", row.n, kind, row.tag), func(b *testing.B) {
			if row.pool > 0 && os.Getenv("BENCH_FULLPOOL") == "" {
				b.Skip("set BENCH_FULLPOOL=1 to run the 4.3 GiB full-pool row")
			}
			if row.n >= 512 && os.Getenv("BENCH_LARGE") == "" {
				b.Skip("set BENCH_LARGE=1 to run the n>=512 rows")
			}
			g := core.UniformGame(row.n, 2, row.ver)
			start := RandomProfile(g, rand.New(rand.NewSource(9)))
			opts := Options{
				Responder:  core.GreedyResponder,
				Cached:     core.GreedyDeviatorResponder,
				PoolBudget: row.pool,
				MaxRounds:  600,
			}
			if row.weighted {
				opts.Weights = graph.NewWeights(row.n, 9, 8)
				opts.Responder = core.WeightedGreedyResponder(opts.Weights)
			}
			pre, err := Run(g, start, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !pre.Converged {
				b.Fatal("dynamics did not converge within the settle budget")
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
				settled.Pool = core.NewWeightedCachePool(g, row.pool, opts.Weights)
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
// the converged profile on the warm pool does no matrix work: no fills,
// resyncs, delta repairs, derivations or (weighted) weight repairs —
// only stamp skips and memo hits. This is the O(movers) invariant.
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
		{"derivations", after.Derives - before.Derives},
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
