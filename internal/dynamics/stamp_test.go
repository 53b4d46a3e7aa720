package dynamics

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// Stamped dynamics must reproduce the oracle exactly — same moves, same
// rounds, same final profile — across engines, versions and responder
// pairs, also when the stamps cannot vouch for an entry. Both engines
// share one external pool, so the second engine starts on entries
// synced to the first run's final graph: a different instance with a
// different content anchor, which neither a stamp nor the journal
// covers, so each one takes the Resync (diff) rung. In the par=true
// subtests a second goroutine polls the pool's Stats and BytesUsed for
// the whole subtest — the one concurrent access the pool's contract
// allows (serve's memory governor does the same) — which -race checks.
func TestStampedDynamicsMatchesDiffAlways(t *testing.T) {
	for _, ver := range []core.Version{core.SUM, core.MAX} {
		for _, p := range responderPairs {
			for _, par := range []bool{false, true} {
				for seed := int64(0); seed < 2; seed++ {
					name := fmt.Sprintf("%v/%s/par=%v/seed=%d", ver, p.name, par, seed)
					t.Run(name, func(t *testing.T) {
						g := core.UniformGame(10, 1, ver)
						start := RandomProfile(g, rand.New(rand.NewSource(seed)))
						pool := core.NewCachePool(g, 0)
						defer pool.Close()
						if par {
							defer pollStats(pool)()
						}
						opts := Options{
							Responder: p.plain, Cached: p.cached, Pool: pool,
							DetectLoops: true, MaxRounds: 200,
						}
						want := runOracle(t, Run, g, start, opts)
						wantSim := runOracle(t, RunSimultaneous, g, start, opts)
						assertSameResult(t, "Run", mustRun(t, Run, g, start, opts), want)
						before := pool.Stats().Resyncs
						assertSameResult(t, "RunSimultaneous", mustRun(t, RunSimultaneous, g, start, opts), wantSim)
						if want.Moves > 0 && pool.Stats().Resyncs == before {
							t.Fatalf("RunSimultaneous over entries stale from another run ran no resync (stats %+v)", pool.Stats())
						}
					})
				}
			}
		}
	}
}

// The O(movers) invariant: once a run has converged, re-running it over
// a warm external pool must touch no player's matrix at all — zero
// resyncs, zero delta repairs, only stamp skips and memo hits.
func TestSettledRoundZeroResyncs(t *testing.T) {
	g := core.UniformGame(24, 1, core.SUM)
	start := RandomProfile(g, rand.New(rand.NewSource(5)))
	pool := core.NewCachePool(g, 0)
	defer pool.Close()
	opts := Options{
		Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder,
		MaxRounds: 400, Pool: pool,
	}
	pre, err := Run(g, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatal("run did not converge")
	}
	settled := pre.Final
	warm, err := Run(g, settled, opts) // warm-up: entries resync to the settled clone lineage
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || warm.Moves != 0 {
		t.Fatalf("settled profile moved: %+v", warm)
	}
	before := pool.Stats()
	res, err := Run(g, settled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Moves != 0 {
		t.Fatalf("settled profile moved: %+v", res)
	}
	after := pool.Stats()
	if d := after.Resyncs - before.Resyncs; d != 0 {
		t.Fatalf("settled round ran %d resyncs, want 0 (stats %+v)", d, after)
	}
	if d := after.DeltaRepairs - before.DeltaRepairs; d != 0 {
		t.Fatalf("settled round ran %d delta repairs, want 0", d)
	}
	if after.StampSkips+after.MemoHits <= before.StampSkips+before.MemoHits {
		t.Fatalf("settled round exercised no stamp fast path (stats %+v)", after)
	}
}

// One external pool, too small to pool every player, shared by
// consecutive runs while a second goroutine polls its Stats and
// BytesUsed. Under -race this pins the pool's concurrency contract: the
// counters and the byte gauge are the only state read off the owning
// goroutine. Results must match the oracle exactly.
func TestStampedParallelCachedRace(t *testing.T) {
	n := 16
	g := core.UniformGame(n, 2, core.MAX)
	// Room for only 5 of 16 matrices: pooled and unpooled players mix.
	pool := core.NewCachePool(g, 5*4*int64(n)*int64(n+1))
	defer pool.Close()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		start := RandomProfile(g, rng)
		inc := Options{
			Responder: core.GreedyResponder, Cached: core.GreedyDeviatorResponder,
			Pool: pool, MaxRounds: 60, DetectLoops: true,
		}
		stop := pollStats(pool)
		got, err := Run(g, start, inc)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("trial %d", trial), got, runOracle(t, Run, g, start, inc))
	}
	if st := pool.Stats(); st.Acquires == 0 || st.Hits == 0 {
		t.Fatalf("pool unused: %+v", pool.Stats())
	}
}

// pollStats reads pool's Stats and BytesUsed on a second goroutine
// until the returned stop is called; stop waits for the reader to exit.
func pollStats(pool *core.CachePool) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				_ = pool.Stats()
				_ = pool.BytesUsed()
				runtime.Gosched()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
