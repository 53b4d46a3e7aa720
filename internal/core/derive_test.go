package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The private-row rungs against the fill they replace: on every
// generator family, both versions and weights maxW ∈ {1 (unweighted
// tier), 4, 16}, a pool over a journaled graph — whose shared matrix
// takes the journal's delta and whose entries stamp-skip when nothing
// moved — must stay bit-identical to a reference pool over a
// journal-less twin of the graph (see mirror), whose shared matrix is
// filled whole and whose entries re-run the damage test at every step,
// through each acquisition: the rows the kernels read,
// inMin, the private row set, SUM memo, level sets, stability streak,
// offsets, component labels and best responses; and both must read the
// rows of a fresh plain Deviator. The cases put y next to x, brace x
// and y, leave x owning no arcs (reachable through in-arcs only), and
// make y a top-degree vertex, whose deletion disconnects the path, star
// and tree families. The test keeps the name of the derive rung these
// rungs replaced.
func TestPropertyDeriveMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	var refilled, refResyncs int64
	for _, inst := range generatorCorpus(rng) {
		for _, version := range []Version{SUM, MAX} {
			for _, maxW := range []int32{1, 4, 16} {
				for c := 0; c < 4; c++ {
					st, ref := deriveCase(t, inst.name, inst.d, version, maxW, c, rng)
					refilled += st.RowsRefilled
					refResyncs += ref.Resyncs
				}
			}
		}
	}
	if refilled == 0 {
		t.Fatal("no entry ever refilled a private row")
	}
	if refResyncs == 0 {
		t.Fatal("the reference pool never resynced")
	}
}

// mirror replays src's out-sets onto dst, a journal-less twin, and then
// advances dst's generation even when nothing moved, by setting vertex
// 0's out-set to a different set and back. A pool over dst then finds
// its shared matrix stale with no journal to consult, fills it whole,
// and every stale entry re-runs its damage test and refills all its
// private rows — the forced work the stamp skip and the journal delta
// are compared against.
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

// deriveCase runs one scenario of TestPropertyDeriveMatchesFill and
// returns the journaled and the reference pool's counters.
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
		samePoolState(t, name, pool, refPool)
		fresh := NewWeightedDeviator(g, d, u, wts)
		fresh.EnsureCache(1 << 40)
		if !reflect.DeepEqual(viewRows(ds), viewRows(fresh)) || !reflect.DeepEqual(ds.inMin, fresh.inMin) {
			t.Fatalf("%s %v maxW=%d u=%d step %d: pooled rows differ from a fresh fill", name, version, maxW, u, step)
		}
		fresh.Release()
		if g.Budgets[u] > 0 {
			brS, brD := GreedyDeviatorResponder(g, d, ds), GreedyDeviatorResponder(g, twin, dd)
			if brS.Cost != brD.Cost || brS.Current != brD.Current || brS.Explored != brD.Explored ||
				!equalInts(brS.Strategy, brD.Strategy) {
				t.Fatalf("%s %v maxW=%d u=%d step %d: derived %+v, filled %+v", name, version, maxW, u, step, brS, brD)
			}
		}
		ds.Release()
		dd.Release()
		sameDeviatorState(t, name, version, maxW, u, step, ds, dd) // after the scan built the memo and levels
	}
	move := func(u int) { d.SetOut(u, randomStrategy(n, u, g.Budgets[u], rng)) }
	acquire(x) // first entry: the shared matrix is filled on both sides
	move(x)
	acquire(y) // new entry over a repaired shared matrix
	acquire(y) // quiet acquisitions: the streak climbs, so a heavy
	acquire(y) // sync below must visibly reset it
	for k := 0; k < 3; k++ {
		if m := rng.Intn(n); m != x {
			move(m)
		}
	}
	acquire(x) // x catches up: G−x moved, every damaged row refilled
	move(x)
	acquire(x) // x's own move: G−x is unchanged, its damage set is not
	acquire(y) // repaired, or past the caps filled whole
	for k := 0; k < 3; k++ {
		acquire(y) // settling: the streak climbs and levels appear
	}
	if ref = refPool.Stats(); ref.DeltaRepairs != 0 || ref.StampSkips != 0 {
		t.Fatalf("%s %v maxW=%d: reference pool took a stamp or the journal: %+v", name, version, maxW, ref)
	}
	return pool.Stats(), ref
}

// sameDeviatorState fails unless two Deviators for the same player and
// graph carry bit-identical cache state.
func sameDeviatorState(t *testing.T, name string, version Version, maxW int32, u, step int, ds, dd *Deviator) {
	t.Helper()
	fail := func(what string) {
		t.Helper()
		t.Fatalf("%s %v maxW=%d u=%d step %d: journaled and reference %s diverged", name, version, maxW, u, step, what)
	}
	switch {
	case !reflect.DeepEqual(viewRows(ds), viewRows(dd)):
		fail("rows")
	case !reflect.DeepEqual(ds.priv, dd.priv) || !reflect.DeepEqual(ds.rows, dd.rows):
		fail("private rows")
	case !reflect.DeepEqual(ds.inMin, dd.inMin):
		fail("inMin")
	case !reflect.DeepEqual(ds.memo, dd.memo):
		fail("SUM memo")
	case !reflect.DeepEqual(ds.lc, dd.lc) || !reflect.DeepEqual(ds.inLv, dd.inLv):
		fail("level sets")
	case ds.stable != dd.stable:
		fail("stability state")
	case !reflect.DeepEqual(ds.woff, dd.woff) || ds.wgen != dd.wgen:
		fail("weighted offsets")
	case !reflect.DeepEqual(ds.label, dd.label) || ds.comps != dd.comps || !reflect.DeepEqual(ds.in, dd.in):
		fail("component labels or in-anchors")
	}
}

// samePoolState fails unless two pools over the same graph hold the
// same shared matrix and shared level sets.
func samePoolState(t *testing.T, name string, p, q *CachePool) {
	t.Helper()
	if !reflect.DeepEqual(p.sh.dist, q.sh.dist) {
		t.Fatalf("%s: shared matrices diverged", name)
	}
	if !reflect.DeepEqual(p.sh.lc, q.sh.lc) {
		t.Fatalf("%s: shared level sets diverged", name)
	}
}

// viewRows returns the n×n matrix dv's kernels read: row v through the
// accessor, finite entries at their offset, with row u and column u
// blanked to -2 — the only entries no kernel reads (inMin[u] = -1 masks
// column u).
func viewRows(dv *Deviator) []int32 {
	n := dv.game.N()
	out := make([]int32, n*n)
	for v := 0; v < n; v++ {
		r, off := dv.row(v)
		for w, x := range r {
			if x < graph.InfDist {
				x += off
			}
			if v == dv.u || w == dv.u {
				x = -2
			}
			out[v*n+w] = x
		}
	}
	return out
}
