package graph

import (
	"math/rand"
	"testing"
)

func TestStampMutatorsBumpAndTouch(t *testing.T) {
	g := NewDigraph(5)
	if g.Gen() != 0 {
		t.Fatalf("fresh graph gen = %d, want 0", g.Gen())
	}
	if !g.AddArc(0, 1) || g.Gen() != 1 {
		t.Fatalf("AddArc should bump gen to 1, got %d", g.Gen())
	}
	if g.NodeGen(0) != 1 || g.NodeGen(1) != 1 || g.NodeGen(2) != 0 {
		t.Fatalf("AddArc touched wrong nodes: %d %d %d", g.NodeGen(0), g.NodeGen(1), g.NodeGen(2))
	}
	if g.AddArc(0, 1) {
		t.Fatal("duplicate AddArc reported true")
	}
	if g.Gen() != 1 {
		t.Fatalf("duplicate AddArc bumped gen to %d", g.Gen())
	}
	if g.RemoveArc(2, 3) {
		t.Fatal("absent RemoveArc reported true")
	}
	if g.Gen() != 1 {
		t.Fatalf("absent RemoveArc bumped gen to %d", g.Gen())
	}
	if !g.RemoveArc(0, 1) || g.Gen() != 2 {
		t.Fatalf("RemoveArc should bump gen to 2, got %d", g.Gen())
	}
	if !g.TouchedSince(1, 1) || g.TouchedSince(1, 2) {
		t.Fatal("TouchedSince wrong after RemoveArc")
	}
}

func TestStampSetOutNoopDoesNotBump(t *testing.T) {
	g := NewDigraph(4)
	g.SetOut(0, []int{2, 1})
	gen := g.Gen()
	if gen != 1 {
		t.Fatalf("SetOut gen = %d, want 1", gen)
	}
	g.SetOut(0, []int{1, 2, 2, 1}) // same set after sort+dedup
	if g.Gen() != gen {
		t.Fatalf("no-op SetOut bumped gen to %d", g.Gen())
	}
	g.SetOut(0, []int{1, 3})
	if g.Gen() != gen+1 {
		t.Fatalf("real SetOut gen = %d, want %d", g.Gen(), gen+1)
	}
	// Touched: owner 0, dropped target 2, added target 3; 1 unchanged.
	if g.NodeGen(0) != 2 || g.NodeGen(2) != 2 || g.NodeGen(3) != 2 {
		t.Fatal("SetOut did not touch changed endpoints")
	}
	if g.NodeGen(1) != 1 {
		t.Fatalf("SetOut touched unchanged target 1: gen %d", g.NodeGen(1))
	}
}

func TestStampAnchorCloneAndDivergence(t *testing.T) {
	g := NewDigraph(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	c := g.Clone()
	gs, gg := g.Anchor()
	cs, cg := c.Anchor()
	if gs != cs || gg != cg {
		t.Fatal("clone anchor differs from source")
	}
	d := c.Clone() // clone of a clone still matches
	ds, dg := d.Anchor()
	if ds != gs || dg != gg {
		t.Fatal("second-level clone anchor differs")
	}
	c.AddArc(2, 3)
	cs2, cg2 := c.Anchor()
	if cs2 == gs && cg2 == gg {
		t.Fatal("mutated clone kept the old anchor")
	}
	// The untouched copies still agree with each other.
	ds, dg = d.Anchor()
	gs2, gg2 := g.Anchor()
	if ds != gs2 || dg != gg2 {
		t.Fatal("untouched copies lost anchor agreement")
	}
	// Independent mutations of two clones must not collide.
	e := g.Clone()
	e.AddArc(3, 0)
	es, eg := e.Anchor()
	if es == cs2 && eg == cg2 {
		t.Fatal("independent clone mutations produced equal anchors")
	}
}

// TestStampDeltaSinceMatchesDiffUnd drives random mutation streams and
// checks that the journal's net delta from every checkpoint equals a
// ground-truth DiffUnd of snapshots, under every cap, and that the node
// stamps (TouchedSince) never under-report an in(u) change.
func TestStampDeltaSinceMatchesDiffUnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(8)
		g := NewDigraph(n)
		for i := 0; i < n; i++ {
			g.AddArc(i, (i+1)%n)
		}
		g.StartJournal(0)
		type snap struct {
			gen int64
			und Und
			in  [][]int
		}
		take := func() snap {
			s := snap{gen: g.Gen(), und: g.Underlying(), in: make([][]int, n)}
			for u := 0; u < n; u++ {
				s.in[u] = g.In(u)
			}
			return s
		}
		snaps := []snap{take()}
		for step := 0; step < 30; step++ {
			u := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				v := rng.Intn(n)
				if v != u {
					g.AddArc(u, v)
				}
			case 1:
				v := rng.Intn(n)
				if v != u {
					g.RemoveArc(u, v)
				}
			case 2:
				var s []int
				for v := 0; v < n; v++ {
					if v != u && rng.Intn(n) < 2 {
						s = append(s, v)
					}
				}
				g.SetOut(u, s)
			case 3:
				g.SetOut(u, g.Out(u)) // no-op rewire
			}
			if rng.Intn(3) == 0 {
				snaps = append(snaps, take())
			}
		}
		cur := take()
		for _, old := range snaps {
			dl, ok := g.DeltaSince(old.gen, -1)
			if !ok {
				t.Fatalf("trial %d: unbounded journal reported !ok", trial)
			}
			wantRem, wantAdd := DiffUnd(old.und, cur.und, -1)
			if dl.Oversized || !edgesEqual(dl.Removed, wantRem) || !edgesEqual(dl.Added, wantAdd) {
				t.Fatalf("trial %d since=%d: delta mismatch\n got -%v +%v (oversized %v)\nwant -%v +%v",
					trial, old.gen, dl.Removed, dl.Added, dl.Oversized, wantRem, wantAdd)
			}
			for u := 0; u < n; u++ {
				inChanged := !intsEqual(old.in[u], cur.in[u])
				if inChanged && !g.TouchedSince(u, old.gen) {
					t.Fatalf("trial %d u=%d: in(u) changed but u untouched", trial, u)
				}
			}
			// A capped query is oversized exactly when the net delta
			// exceeds the cap, and otherwise returns the same delta.
			for limit := 0; limit < 6; limit++ {
				capped, ok := g.DeltaSince(old.gen, limit)
				if !ok {
					t.Fatalf("trial %d: capped query reported !ok", trial)
				}
				if over := len(wantRem)+len(wantAdd) > limit; capped.Oversized != over {
					t.Fatalf("trial %d since=%d limit=%d: oversized=%v, net delta has %d edges",
						trial, old.gen, limit, capped.Oversized, len(wantRem)+len(wantAdd))
				}
				if !capped.Oversized && (!edgesEqual(capped.Removed, wantRem) || !edgesEqual(capped.Added, wantAdd)) {
					t.Fatalf("trial %d limit=%d: capped delta differs from the full one", trial, limit)
				}
			}
		}
	}
}

func TestStampJournalOverflow(t *testing.T) {
	g := NewDigraph(6)
	g.StartJournal(4)
	start := g.Gen()
	for i := 0; i < 10; i++ {
		u := i % 5
		if !g.AddArc(u, u+1) {
			g.RemoveArc(u, u+1)
		}
	}
	if _, ok := g.DeltaSince(start, -1); ok {
		t.Fatal("overflowed journal still claimed coverage of the start")
	}
	recent := g.Gen()
	g.AddArc(0, 5)
	if _, ok := g.DeltaSince(recent, -1); !ok {
		t.Fatal("journal lost coverage of the most recent generation")
	}
	// Clones carry stamps but never the journal.
	c := g.Clone()
	if _, ok := c.DeltaSince(c.Gen()-1, -1); ok {
		t.Fatal("clone inherited the journal")
	}
	if _, ok := c.DeltaSince(c.Gen(), -1); !ok {
		t.Fatal("same-generation query should be ok even without a journal")
	}
}

func edgesEqual(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
