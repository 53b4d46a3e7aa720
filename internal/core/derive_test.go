package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The derive rung against the fill it replaces: on every generator
// family, both versions and weights maxW ∈ {1 (unweighted tier), 4,
// 16}, a pool over a journaled graph that derives player y's matrix
// from an exact donor x must stay bit-identical to a reference pool
// over a journal-less twin of the graph (see mirror) — no donor is
// exact there after a generation bump, so the reference fills and
// resyncs where the journaled pool derives — through the derivation and
// the acquisitions after it: rows, inMin, colMin, SUM memo, level sets,
// stability streak and best responses. The cases put y next to x, brace
// x and y, leave x owning no arcs (reachable through in-arcs only), and
// make y a top-degree vertex, whose deletion disconnects the path, star
// and tree families.
func TestPropertyDeriveMatchesFill(t *testing.T) {
	defer func(f float64) { graph.RepairRefillFraction = f }(graph.RepairRefillFraction)
	rng := rand.New(rand.NewSource(9003))
	for _, frac := range []float64{0.25, 1} {
		graph.RepairRefillFraction = frac
		var derives, refResyncs int64
		for _, inst := range generatorCorpus(rng) {
			for _, version := range []Version{SUM, MAX} {
				for _, maxW := range []int32{1, 4, 16} {
					for c := 0; c < 4; c++ {
						st, ref := deriveCase(t, inst.name, inst.d, version, maxW, c, rng)
						derives += st.Derives
						refResyncs += ref.Resyncs
					}
				}
			}
		}
		t.Logf("RepairRefillFraction %.2f: %d derivations, reference %d resyncs", frac, derives, refResyncs)
		if frac == 1 && derives == 0 {
			t.Fatal("the derive rung never ran")
		}
		if refResyncs == 0 {
			t.Fatal("the reference pool never resynced")
		}
	}
}

// mirror replays src's out-sets onto dst, a journal-less twin, and then
// advances dst's generation even when nothing moved, by setting vertex
// 0's out-set to a different set and back. Every stale entry of a pool
// over dst then fails the generation check and, with no journal to
// consult, takes the Resync rung (Deviator.Repair) — the forced diff the
// stamp skip and the journal delta are compared against.
func mirror(dst, src *graph.Digraph) {
	for v := 0; v < src.N(); v++ {
		dst.SetOut(v, src.Out(v))
	}
	out := append([]int(nil), dst.Out(0)...)
	if len(out) > 0 {
		dst.SetOut(0, out[1:])
	} else {
		dst.SetOut(0, []int{1})
	}
	dst.SetOut(0, out)
}

// deriveCase runs one derive scenario (see TestPropertyDeriveMatchesFill)
// and returns the journaled and the reference pool's counters.
func deriveCase(t *testing.T, name string, start *graph.Digraph, version Version, maxW int32, c int, rng *rand.Rand) (st, ref PoolStats) {
	t.Helper()
	d := start.Clone()
	n := d.N()
	x := rng.Intn(n)
	y := (x + 1 + rng.Intn(n-1)) % n
	switch c {
	case 0: // y adjacent to x
		if nb := d.Underlying()[x]; len(nb) > 0 {
			y = nb[rng.Intn(len(nb))]
		}
	case 1: // a brace between x and y
		d.AddArc(x, y)
		d.AddArc(y, x)
	case 2: // x owns nothing
		d.SetOut(x, nil)
		d.AddArc(y, x)
	case 3: // y of top degree
		a := d.Underlying()
		for v := range a {
			if v != x && len(a[v]) > len(a[y]) {
				y = v
			}
		}
	}
	g := GameOf(d, version)
	twin := d.Clone() // Clone never copies a journal
	d.StartJournal(0)
	var wts *graph.Weights
	if maxW > 1 {
		wts = graph.NewWeights(n, rng.Int63(), maxW)
	}
	refPool := NewWeightedCachePool(g, 0, wts)
	defer refPool.Close()
	pool := NewWeightedCachePool(g, 0, wts)
	defer pool.Close()
	step := 0
	acquire := func(u int) {
		t.Helper()
		step++
		mirror(twin, d)
		pool.Invalidate()
		refPool.Invalidate()
		ds, dd := pool.Acquire(d, u), refPool.Acquire(twin, u)
		sameDeviatorState(t, name, version, maxW, u, step, ds, dd)
		if g.Budgets[u] > 0 {
			brS, brD := GreedyDeviatorResponder(g, d, ds), GreedyDeviatorResponder(g, twin, dd)
			if brS.Cost != brD.Cost || brS.Current != brD.Current || brS.Explored != brD.Explored ||
				!equalInts(brS.Strategy, brD.Strategy) {
				t.Fatalf("%s %v maxW=%d u=%d step %d: derived %+v, filled %+v", name, version, maxW, u, step, brS, brD)
			}
		}
		ds.Release()
		dd.Release()
		sameDeviatorState(t, name, version, maxW, u, step, ds, dd) // after the scan built colMin/memo/levels
	}
	move := func(u int) { d.SetOut(u, randomStrategy(n, u, g.Budgets[u], rng)) }
	acquire(x) // first entry: no donor, filled on both sides
	move(x)
	acquire(y) // new entry: derived from x (x's own move is the only change)
	acquire(y) // quiet acquisitions: the streak climbs, so the rebuild
	acquire(y) // below must visibly reset it
	for k := 0; k < 3; k++ {
		if m := rng.Intn(n); m != x {
			move(m)
		}
	}
	acquire(x) // x catches up and is exact again
	move(x)
	acquire(y) // repaired, or past the caps rebuilt whole: derived from x
	for k := 0; k < 3; k++ {
		acquire(y) // settling: the streak climbs and levels appear
	}
	if ref = refPool.Stats(); ref.DeltaRepairs != 0 || ref.StampSkips != 0 || ref.Derives != 0 {
		t.Fatalf("%s %v maxW=%d: reference pool took a stamp, the journal or a donor: %+v", name, version, maxW, ref)
	}
	return pool.Stats(), ref
}

// sameDeviatorState fails unless two Deviators for the same player and
// graph carry bit-identical cache state.
func sameDeviatorState(t *testing.T, name string, version Version, maxW int32, u, step int, ds, dd *Deviator) {
	t.Helper()
	fail := func(what string) {
		t.Helper()
		t.Fatalf("%s %v maxW=%d u=%d step %d: derived and filled %s diverged", name, version, maxW, u, step, what)
	}
	switch {
	case !reflect.DeepEqual(ds.rows, dd.rows):
		fail("rows")
	case !reflect.DeepEqual(ds.inMin, dd.inMin):
		fail("inMin")
	case !reflect.DeepEqual(ds.colMin, dd.colMin):
		fail("colMin")
	case !reflect.DeepEqual(ds.memo, dd.memo):
		fail("SUM memo")
	case !reflect.DeepEqual(ds.lc, dd.lc) || !reflect.DeepEqual(ds.inLv, dd.inLv):
		fail("level sets")
	case ds.stable != dd.stable || ds.sumSufInOK != dd.sumSufInOK:
		fail("stability state")
	case !reflect.DeepEqual(ds.woff, dd.woff) || ds.wgen != dd.wgen:
		fail("weighted offsets")
	}
}
