package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Closed pools must be inert: Invalidate/Acquire/Stats after Close, and
// a second Close, are defined no-ops that never touch the recycled
// matrices (Acquire degrades to plain Deviators).
func TestPoolLifecycleAfterClose(t *testing.T) {
	g := UniformGame(10, 1, SUM)
	rng := rand.New(rand.NewSource(9001))
	d := graph.RandomOutDigraph(g.Budgets, rng)
	pool := NewCachePool(g, 0)
	a := pool.Acquire(d, 0)
	a.Release()
	pool.NoteResponse(d, 0, false)
	if !pool.SkipResponse(d, 0) {
		t.Fatal("memo miss before close")
	}
	pool.Close()
	if a.HasCache() {
		t.Fatal("Close did not recycle the pooled matrix")
	}
	pool.Close() // double Close: no-op, must not double-recycle
	pool.Invalidate()
	b := pool.Acquire(d, 0)
	if b == a {
		t.Fatal("Acquire after Close resurrected a recycled entry")
	}
	if b.HasCache() {
		t.Fatal("Acquire after Close pooled a matrix")
	}
	plain := NewDeviator(g, d, 0)
	s := randomStrategy(10, 0, 1, rng)
	if b.Eval(s) != plain.Eval(s) {
		t.Fatal("post-Close Deviator evaluates wrong")
	}
	b.Release()
	if pool.SkipResponse(d, 0) {
		t.Fatal("response memo survived Close")
	}
	pool.NoteResponse(d, 0, false) // must not re-grow state on a closed pool
	if pool.SkipResponse(d, 0) {
		t.Fatal("NoteResponse after Close recorded a memo")
	}
	st := pool.Stats()
	if st.Acquires != 2 || st.Fills != 1 || st.Unpooled != 1 {
		t.Fatalf("stats after close = %+v, want 2 acquires, 1 fill, 1 unpooled", st)
	}
	// Nil pool: every method is a no-op.
	var nilPool *CachePool
	nilPool.Invalidate()
	nilPool.Close()
	nilPool.ResetResponseMemo()
	if nilPool.SkipResponse(d, 0) {
		t.Fatal("nil pool not inert")
	}
	_ = nilPool.Stats()
}

// Stamp-skip and journal-delta acquisition must produce Deviator state
// bit-identical to forced-refill acquisition — the rows the kernels
// read, the private row set, inMin fold, SUM memo, stability streak,
// component labels — and identical best responses, across all 8
// generator families under random rewire / no-op / over-invalidation
// interleavings. The forced-refill reference is a pool over a
// journal-less twin of the graph whose generation mirror advances every
// step: its shared matrix is filled whole and every stale entry re-runs
// its damage test and refills its private rows, including on steps
// where nothing moved.
func TestPropertyStampSkipMatchesForcedDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	for _, inst := range generatorCorpus(rng) {
		for _, version := range []Version{SUM, MAX} {
			g := GameOf(inst.d, version)
			n := g.N()
			d := inst.d.Clone()
			twin := inst.d.Clone()
			d.StartJournal(0) // unbounded: every delta is journal-covered
			diffPool := NewCachePool(g, 0)
			stampPool := NewCachePool(g, 0)
			for step := 0; step < 10; step++ {
				switch rng.Intn(4) {
				case 0: // settled round: nothing moves
				case 1: // no-op rewire: SetOut to the identical set
					u := rng.Intn(n)
					d.SetOut(u, d.Out(u))
				default:
					for i := 0; i <= rng.Intn(2); i++ {
						mutateRandomPlayer(g, d, rng)
					}
				}
				mirror(twin, d)
				// Over-invalidation: both pools go stale even on no-op steps.
				stampPool.Invalidate()
				diffPool.Invalidate()
				for k := 0; k < 3; k++ {
					u := rng.Intn(n)
					ds := stampPool.Acquire(d, u)
					dd := diffPool.Acquire(twin, u)
					var brS, brD BestResponse
					if g.Budgets[u] > 0 {
						brS = GreedyDeviatorResponder(g, d, ds)
						brD = GreedyDeviatorResponder(g, twin, dd)
					}
					ds.Release()
					dd.Release()
					if brS.Cost != brD.Cost || brS.Current != brD.Current ||
						brS.Explored != brD.Explored || !equalInts(brS.Strategy, brD.Strategy) {
						t.Fatalf("%s %v u=%d step=%d: stamped %+v, diffed %+v",
							inst.name, version, u, step, brS, brD)
					}
					sameDeviatorState(t, inst.name, version, 1, u, step, ds, dd)
					samePoolState(t, inst.name, stampPool, diffPool)
				}
			}
			// The stamped pool must actually have exercised the fast paths.
			st := stampPool.Stats()
			if st.StampSkips == 0 {
				t.Fatalf("%s %v: stamped pool never stamp-skipped (stats %+v)", inst.name, version, st)
			}
			if dst := diffPool.Stats(); dst.Resyncs == 0 || dst.StampSkips != 0 || dst.DeltaRepairs != 0 {
				t.Fatalf("%s %v: forced-diff pool used stamps (stats %+v)", inst.name, version, dst)
			}
			stampPool.Close()
			diffPool.Close()
		}
	}
}
