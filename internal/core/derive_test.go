package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The derive rung against the fill it replaces: on every generator
// family, both versions and weights maxW ∈ {1 (unweighted tier), 4,
// 16}, a stamped pool that derives player y's matrix from an exact
// donor x must stay bit-identical to a forced-diff pool (stamps off,
// hence no derive rung) that fills it — rows, inMin, colMin, SUM memo,
// level sets, stability streak and best responses — through the
// derivation and the acquisitions after it. The cases put y next to x,
// brace x and y, leave x owning no arcs (reachable through in-arcs
// only), and make y a top-degree vertex, whose deletion disconnects the
// path, star and tree families.
func TestPropertyDeriveMatchesFill(t *testing.T) {
	defer func(f float64) { graph.RepairRefillFraction = f }(graph.RepairRefillFraction)
	rng := rand.New(rand.NewSource(9003))
	for _, frac := range []float64{0.25, 1} {
		graph.RepairRefillFraction = frac
		var derives int64
		for _, inst := range generatorCorpus(rng) {
			for _, version := range []Version{SUM, MAX} {
				for _, maxW := range []int32{1, 4, 16} {
					for c := 0; c < 4; c++ {
						derives += deriveCase(t, inst.name, inst.d, version, maxW, c, rng)
					}
				}
			}
		}
		t.Logf("RepairRefillFraction %.2f: %d derivations", frac, derives)
		if frac == 1 && derives == 0 {
			t.Fatal("the derive rung never ran")
		}
	}
}

// deriveCase runs one derive scenario (see TestPropertyDeriveMatchesFill)
// and returns the stamped pool's derive count.
func deriveCase(t *testing.T, name string, start *graph.Digraph, version Version, maxW int32, c int, rng *rand.Rand) int64 {
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
	d.StartJournal(0)
	var wts *graph.Weights
	if maxW > 1 {
		wts = graph.NewWeights(n, rng.Int63(), maxW)
	}
	t.Setenv("BBNCG_STAMPS", "0")
	diffPool := NewWeightedCachePool(g, 0, wts)
	defer diffPool.Close()
	t.Setenv("BBNCG_STAMPS", "1")
	stampPool := NewWeightedCachePool(g, 0, wts)
	defer stampPool.Close()
	step := 0
	acquire := func(u int) {
		t.Helper()
		step++
		stampPool.Invalidate()
		diffPool.Invalidate()
		ds, dd := stampPool.Acquire(d, u), diffPool.Acquire(d, u)
		sameDeviatorState(t, name, version, maxW, u, step, ds, dd)
		if g.Budgets[u] > 0 {
			brS, brD := GreedyDeviatorResponder(g, d, ds), GreedyDeviatorResponder(g, d, dd)
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
	return stampPool.Stats().Derives
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
